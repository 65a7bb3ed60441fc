"""`arrays.shared`: the one way the package shares work with its helper thread."""

import threading
import time

import pytest

import icecache.arrays
from icecache.arrays import helper, shared


def _recorded(seen, delay=0.0, started=None):
    """A `work` that records (thread, item) for each item it takes."""
    def work(items):
        for item in items:
            seen.append((threading.current_thread(), item))
            if started is not None:
                started.set()
            time.sleep(delay)
    return work


@pytest.mark.parametrize("items", [[], [7]])
def test_fewer_than_two_items_submit_nothing(monkeypatch, items):
    submitted, seen = [], []

    class Recording:
        def submit(self, fn, *args):
            submitted.append(fn)
            return helper().submit(fn, *args)
    monkeypatch.setattr(icecache.arrays, "helper", Recording)
    with shared(_recorded(seen), items) as rest:
        _recorded(seen)(rest)
    assert not submitted
    assert seen == [(threading.main_thread(), item) for item in items]


def test_an_idle_helper_shares_every_item_once():
    """The block starts once the helper holds an item; each item then runs
    once, and both threads take some."""
    seen, started = [], threading.Event()
    with shared(_recorded(seen, 0.01, started), range(20)) as rest:
        assert started.wait(timeout=30)
        _recorded(seen, 0.01)(rest)
    assert sorted(item for _, item in seen) == list(range(20))
    assert {thread.name.startswith("icecache-helper") for thread, _ in seen} == {True, False}


def test_a_busy_helper_leaves_every_item_to_the_block():
    """The helper runs a task that waits on an event set only after the
    block: the block takes every item and returns without waiting."""
    seen, release = [], threading.Event()
    blocker = helper().submit(release.wait, 60)
    try:
        with shared(_recorded(seen), range(5)) as rest:
            _recorded(seen)(rest)
        assert not blocker.done()
    finally:
        release.set()
    assert blocker.result(timeout=60)
    assert seen == [(threading.main_thread(), item) for item in range(5)]


def test_a_share_entered_on_the_helper_does_every_item_there():
    seen = []

    def on_the_helper():
        with shared(_recorded(seen), range(5)) as rest:
            _recorded(seen)(rest)
        return threading.current_thread()
    thread = helper().submit(on_the_helper).result(timeout=60)
    assert seen == [(thread, item) for item in range(5)]


def test_a_block_that_raises_returns_after_the_helpers_item_with_its_own_error():
    """The helper holds a slow item, then fails; the block fails first.
    The block's error arrives once the helper's item is done."""
    done, started = [], threading.Event()

    def work(items):
        for item in items:
            started.set()
            time.sleep(0.05)
            done.append(item)
            raise ValueError("helper failed")

    with pytest.raises(RuntimeError, match="block failed"):
        with shared(work, range(5)):
            assert started.wait(timeout=30)
            raise RuntimeError("block failed")
    assert done == [0]
    assert helper().submit(int, 7).result(timeout=10) == 7


def test_a_work_that_raises_surfaces_its_error_at_exit():
    started, seen = threading.Event(), []

    def work(items):
        next(items)
        started.set()
        raise ValueError("helper failed")

    with pytest.raises(ValueError, match="helper failed"):
        with shared(work, range(5)) as rest:
            assert started.wait(timeout=30)
            _recorded(seen)(rest)
    assert [item for _, item in seen] == [1, 2, 3, 4]
