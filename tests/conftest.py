import gc

import pytest


@pytest.fixture
def collections_during():
    """Run a callable on a freshly collected heap; return the generation of every cyclic
    garbage collection that started while it ran."""
    def run(action):
        started = []

        def count(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            action()
        finally:
            gc.callbacks.remove(count)
        return started

    return run
