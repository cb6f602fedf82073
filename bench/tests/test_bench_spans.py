import math

import numpy as np

import spans
from ttbell import chsh, cli


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_the_children_of_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def step(dt):
        clock.now += dt

    # root [0, 10] calls a [1, 4] and b [5, 9]; a calls leaf [2, 3]
    leaf = tracer.wrap("leaf", lambda: step(1))
    a = tracer.wrap("a", lambda: (step(1), leaf(), step(1)))
    b = tracer.wrap("b", lambda: step(4))
    root = tracer.wrap("root", lambda: (step(1), a(), step(1), b(), step(1)))
    root()

    _, parent, duration = tracer.arrays()
    assert [tracer.names[i] for i in tracer.name_id] == ["root", "a", "leaf", "b"]
    assert parent.tolist() == [spans.ROOT, 0, 1, 0]
    assert duration.tolist() == [10.0, 3.0, 1.0, 4.0]
    assert spans.self_times(parent, duration).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_outermost_counts_a_nested_group_once():
    # 0 -> 1 -> 2, 0 -> 3; spans 1 and 2 belong to the group, 3 does too
    parent = np.array([spans.ROOT, 0, 1, 0])
    member = np.array([False, True, True, True])
    assert spans.outermost(parent, member).tolist() == [False, True, False, True]


def test_install_wraps_names_bound_by_from_import_and_restores_them():
    original = chsh.scan_alpha
    tracer = spans.Tracer()
    restore = spans.install(tracer.wrap)
    try:
        assert cli.scan_alpha is chsh.scan_alpha is not original
        assert cli.main(["chsh-scan", "--alpha-step=0.5", "--out", "-"]) == 0
    finally:
        restore()
    assert cli.scan_alpha is chsh.scan_alpha is original

    names = [tracer.names[i] for i in tracer.name_id]
    main = names.index("cli.main")
    scan = names.index("chsh.scan_alpha")
    assert tracer.parent[main] == spans.ROOT
    assert tracer.parent[scan] == main
    # the scan's per-row evaluations are spans of their own under it
    rows = math.floor(math.pi / 0.5) + 1
    inner = [i for i, n in enumerate(names) if n == "chsh.s_ideal_closed" and tracer.parent[i] == scan]
    assert len(inner) >= rows
