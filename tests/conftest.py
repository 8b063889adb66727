import threading

import pytest


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs."""
    threads, thread_class = [], threading.Thread

    def counted(*args, **kwargs):
        threads.append(thread := thread_class(*args, **kwargs))
        return thread

    monkeypatch.setattr(threading, "Thread", counted)
    return threads
