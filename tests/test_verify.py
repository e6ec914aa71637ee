"""Tests for the sweep plumbing: configs, suite registry, parallel runs, messages under injected faults."""

import multiprocessing
import os
import pickle
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

import extcrystal.cli as cli
import extcrystal.verify as verify
from extcrystal.invariants import PairingRead
from extcrystal.affine import AffineModel, HLNode, HLWeight, format_hl_weight
from extcrystal.enumeration import iter_multisegments
from extcrystal.extended import ExtendedCrystal
from extcrystal.msegment import MultisegmentCrystal
from extcrystal.signature import reduce_runs
from extcrystal.sl2 import Sl2Crystal
from extcrystal.verify import SweepConfig, _items_sig_seq, base_suite_names, run_all, run_suite
from support import BoundedRng, add_node, remove_node

EXT_MEMBERS = (
    "inverse-pairs",
    "counters",
    "weights",
    "star-identities",
    "star-flip",
    "shift-commutation",
    "connectedness",
)


def test_config_validates_window_and_height():
    with pytest.raises(ValueError):
        SweepConfig(n=1, window=(2, -2))
    with pytest.raises(ValueError):
        SweepConfig(n=1, max_ht=-1)
    cfg = SweepConfig(n=2)
    assert cfg.window == (-2, 2)
    assert cfg.max_ht == 4
    with pytest.raises(ValueError):
        cfg._replace(window=(1, 0))


def test_config_refuses_a_seed_outside_64_unsigned_bits():
    # random.Random seeds with |seed|, so seed -1 would draw the cases of seed 1
    message = "seed must fit in 64 unsigned bits"
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SweepConfig(n=3, window=(-1, 0), max_ht=3, seed=seed)
    cfg = SweepConfig(n=3, window=(-1, 0), max_ht=3, seed=2**64 - 1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        cfg._replace(seed=-1)
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    assert cfg._replace(seed=0).seed == 0


def test_config_refuses_a_negative_case_count():
    # a negative count would sweep no draw and report a pass
    for cfg in (
        lambda: SweepConfig(n=2, window=(0, 0), max_ht=2, cases=-3),
        lambda: SweepConfig(n=2, window=(0, 0), max_ht=2)._replace(cases=-1),
    ):
        with pytest.raises(ValueError, match="^case count must be non-negative$"):
            cfg()
    cfg = SweepConfig(n=2, window=(0, 0), max_ht=2, cases=0)
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    assert run_suite("crystal-axioms", cfg) == []


def test_bad_rank_surfaces_on_use(monkeypatch):
    cfg = SweepConfig(n=0, window=(0, 0), max_ht=1)
    with pytest.raises(ValueError):
        run_suite("inverse-pairs", cfg)
    # the seeded suites refuse the rank before a case takes a word; a case
    # generator that fails after 100 words turns a draw that loops into a failure
    monkeypatch.setattr(verify, "_case_rng", lambda cfg, idx: BoundedRng(idx))
    for name in ("crystal-axioms", "bilinear", "shift-covariance"):
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"^rank must be an integer between 1 and 64, got {n}$"):
                run_suite(name, cfg._replace(n=n))


def test_registry_names():
    assert "all" not in base_suite_names()
    assert len(base_suite_names()) == 20


def test_unknown_suite_is_rejected():
    with pytest.raises(KeyError):
        run_suite("nosuch", SweepConfig(n=1))
    with pytest.raises(KeyError):
        list(run_all(SweepConfig(n=1), ("nosuch",)))


def _size(name, cfg):
    return next(run_all(cfg, (name,)))[1]


def test_suite_size_matches_run():
    # every suite runs twice here, so the randomized ones take few cases
    cfg = SweepConfig(n=1, window=(0, 1), max_ht=2, cases=50)
    assert _size("inverse-pairs", cfg) == 6
    sizes = [size for _name, size, _violations in run_all(cfg, base_suite_names())]
    assert sum(sizes) == sum(_size(name, cfg) for name in base_suite_names())


def test_small_run_of_every_suite_is_clean():
    cfg = SweepConfig(n=2, window=(-1, 1), max_ht=3, cases=50)
    for name in base_suite_names():
        assert run_suite(name, cfg) == [], name


def test_all_concatenates_with_prefixes():
    cfg = SweepConfig(n=1, window=(0, 0), max_ht=1, cases=5)
    found = [f"{name} {msg}" for name, _size, violations in run_all(cfg, base_suite_names()) for msg in violations]
    assert found == []


def test_parallel_run_matches_serial():
    serial = SweepConfig(n=2, window=(-1, 1), max_ht=3, jobs=1)
    parallel = SweepConfig(n=2, window=(-1, 1), max_ht=3, jobs=3)
    for name in ("cr-commutation", "inverse-pairs"):
        assert run_suite(name, serial) == run_suite(name, parallel)


def test_jobs_are_capped_at_the_cpu_count(monkeypatch, capsys):
    import concurrent.futures

    sizes = []

    class RecordingPool:
        """Records the pool size it is asked for and maps in this process: no worker starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = SweepConfig(n=2, window=(-1, 1), max_ht=3)
    want = run_suite("inverse-pairs", cfg)
    assert sizes == []
    for jobs, size in ((2, 2), (3, 3), (4, 3), (10**9, 3)):
        assert run_suite("inverse-pairs", cfg._replace(jobs=jobs)) == want
        assert sizes.pop() == size and sizes == []
    args = ["verify", "inverse-pairs", "--n", "2", "--window", "-1..1", "--ht", "3"]
    assert cli.main(args) == 0
    serial = capsys.readouterr().out
    assert cli.main([*args, "--jobs", str(10**9)]) == 0
    assert capsys.readouterr().out == serial and sizes == [3]
    # an unknown CPU count runs serially
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    sizes.clear()
    assert run_suite("inverse-pairs", cfg._replace(jobs=8)) == want and sizes == []


def _within(seconds, fn, *args):
    """fn(*args), or TimeoutError after `seconds`, so a sweep that stalls fails its test, not the whole run."""

    def expire(_signum, _frame):
        raise TimeoutError(f"no result after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _shift_a_unit_in_the_word(monkeypatch):
    """One unit at scan position 2n misread, in both reads of the scan.

    The operators read it at position 2n-1 but move their unit on the weight
    they were given, and the dense word that sig-seq builds from the scan's
    nodes reads none at 2n.  Both methods are called on every read, so the
    fault reaches scans the model has already cached.
    """
    step, signature_nodes = AffineModel._step, AffineModel.signature_nodes

    def bad_step(self, lam, i, k, d):
        *_, below, top = signature_nodes(self, i, k)
        if not dict(lam).get(top):
            return step(self, lam, i, k, d)
        got = step(self, add_node(remove_node(lam, top), below), i, k, d)
        # undo the misreading on the result; a unit taken from position 2n-1
        # that only the misreading put there is not taken from lam
        if dict(got).get(below):
            got = remove_node(got, below)
        return add_node(got, top)

    def bad_nodes(self, i, k):
        return (*signature_nodes(self, i, k)[:-1], None)

    monkeypatch.setattr(AffineModel, "_step", bad_step)
    monkeypatch.setattr(AffineModel, "signature_nodes", bad_nodes)


def test_parallel_node_suites_match_serial(monkeypatch):
    # the items hold nodes and weights, which the pool pickles
    serial = SweepConfig(n=2, window=(-1, 1), max_ht=4, jobs=1)
    parallel = serial._replace(jobs=2)
    for name in ("sig-seq", "cr-commutation"):
        _, size, found = next(run_all(serial, (name,)))
        assert size > 64 and found == []  # fewer items run serially
        assert _within(120, run_suite, name, parallel) == found
    if multiprocessing.get_start_method() == "fork":
        _shift_a_unit_in_the_word(monkeypatch)
        found = run_suite("sig-seq", serial)
        assert found and _within(120, run_suite, "sig-seq", parallel) == found


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="workers must inherit the fault")
def test_a_dying_worker_ends_the_sweep_and_exits_4(monkeypatch, capfd):
    # pickle then rebuilds a node as HLNode.__new__(cls, (a, i)), which
    # raises, so a worker dies while it unpickles its items
    monkeypatch.delattr(HLNode, "__getnewargs__")
    with pytest.raises(BrokenProcessPool):
        _within(60, run_suite, "sig-seq", SweepConfig(n=2, window=(-1, 1), max_ht=5, jobs=2))
    capfd.readouterr()
    argv = ["verify", "sig-seq", "--n", "2", "--window", "-1..1", "--ht", "5", "--jobs", "2"]
    assert _within(60, cli.main, argv) == 4
    *before, last = capfd.readouterr().err.splitlines()
    assert last.startswith("error: internal: BrokenProcessPool:")
    # the worker's own traceback comes first
    assert "Traceback (most recent call last):" in before
    assert any(line.startswith("TypeError: ") for line in before)


def test_randomized_suites_are_seed_deterministic():
    a = run_suite("crystal-axioms", SweepConfig(n=3, max_ht=6, seed=7, cases=40))
    b = run_suite("crystal-axioms", SweepConfig(n=3, max_ht=6, seed=7, cases=40))
    assert a == b == []


def test_sig_seq_item_order_is_frozen():
    items = _items_sig_seq(SweepConfig(n=1, window=(0, 0), max_ht=2))
    assert [(k, format_hl_weight(HLWeight(tuple(zip(nodes, counts))))) for k, nodes, counts in items] == [
        (0, "0"), (0, "(1,0)"), (0, "2*(1,0)"), (0, "(1,0),(1,2)"), (0, "(1,2)"), (0, "2*(1,2)"),
    ]


def _break_shift_and_path(monkeypatch):
    """Two faults that different ext-properties members find on different items.

    shift moves two-slot elements one slot too far for t = 2, and
    path_to_highest drops the one step of a height-one element.
    """
    shift, path_to_highest = ExtendedCrystal.shift, ExtendedCrystal.path_to_highest

    def bad_shift(self, c, t):
        return shift(self, c, t + 1 if t == 2 and len(c.slots) == 2 else t)

    def bad_path(self, c):
        path = path_to_highest(self, c)
        return path[1:] if self.total_height(c) == 1 else path

    monkeypatch.setattr(ExtendedCrystal, "shift", bad_shift)
    monkeypatch.setattr(ExtendedCrystal, "path_to_highest", bad_path)


def test_ext_properties_reports_its_members_one_after_another(monkeypatch, capsys):
    _break_shift_and_path(monkeypatch)
    cfg = SweepConfig(n=1, window=(-1, 0), max_ht=2)
    members = {name: run_suite(name, cfg) for name in EXT_MEMBERS}
    assert members["shift-commutation"] and members["connectedness"]
    assert run_suite("ext-properties", cfg) == [msg for name in EXT_MEMBERS for msg in members[name]]

    args = ["--n", "1", "--window", "-1..0", "--ht", "2"]
    assert cli.main(["verify", "ext-properties", *args]) == 1
    alone = capsys.readouterr().out.splitlines()
    assert cli.main(["verify", "all", *args]) == 1
    lines = capsys.readouterr().out.splitlines()
    at = next(j for j, line in enumerate(lines) if line.startswith("ext-properties:"))
    assert len(alone) == 2 and lines[at : at + 2] == alone


def test_each_item_list_is_built_once_per_run(monkeypatch):
    calls = []
    enumerate_ext = verify.iter_ext_elements

    def counting(*args):
        calls.append(args)
        return enumerate_ext(*args)

    monkeypatch.setattr(verify, "iter_ext_elements", counting)
    args = ["--n", "2", "--window", "-1..1", "--ht", "2"]
    assert cli.main(["verify", "ext-properties", *args]) == 0
    assert len(calls) == 1
    calls.clear()
    # the ext list, the affine list and graph-count's own set
    assert cli.main(["verify", "all", *args]) == 0
    assert len(calls) == 3


def test_sig_seq_finds_a_unit_moved_to_the_neighbouring_count(monkeypatch):
    _shift_a_unit_in_the_word(monkeypatch)
    violations = run_suite("sig-seq", SweepConfig(n=2, window=(0, 0), max_ht=2))
    assert violations and all(msg.startswith("signature-concat: ") for msg in violations)


def test_bilinear_finds_a_sign_error_in_the_left_form(monkeypatch):
    cfg = SweepConfig(n=3, window=(-1, 1), max_ht=3, cases=200)
    assert run_suite("bilinear", cfg) == []

    def bad_left(self):
        # slot k counted with the sign of the slots above it
        return 2 * max(self.x, self.r) + sum(-v if t >= self.k else v for t, v in self.rel)

    monkeypatch.setattr(PairingRead, "lambda_left", bad_left)
    violations = run_suite("bilinear", cfg)
    assert violations and all(msg.startswith("bilinear: ") for msg in violations)


def _star_raise_fails_at_height_three(monkeypatch):
    raise_with = MultisegmentCrystal.raise_with

    def bad(self, b, read):
        # a read ends with the entry of the word it reduced: here the starred word along 2
        return None if read[-1] is self._starred[2] and b.height() == 3 else raise_with(self, b, read)

    monkeypatch.setattr(MultisegmentCrystal, "raise_with", bad)


def _left_form_skewed_at_slot_one(monkeypatch):
    lambda_left = PairingRead.lambda_left
    monkeypatch.setattr(PairingRead, "lambda_left", lambda self: lambda_left(self) + (self.k == 1))


def _every_draw_checked(name, cfg):
    """The suite's violations with the check run on every draw, in draw order."""
    suite = verify._SUITES[name]
    reads = suite.reads or (lambda case: case)
    cases = (reads(suite.draw(cfg, idx)) for idx in suite.items(cfg))
    return [msg for case in cases for msg in verify._violations(suite.check, cfg, case)]


# workers see a monkeypatched fault only if they are forked from this process
_JOBS = (1, 2) if multiprocessing.get_start_method() == "fork" else (1,)


@pytest.mark.parametrize(
    "name, fault, count",
    [
        ("crystal-axioms", _star_raise_fails_at_height_three, 3349),
        ("bilinear", _left_form_skewed_at_slot_one, 5026),
        ("shift-covariance", _left_form_skewed_at_slot_one, 3238),
    ],
)
def test_a_randomized_sweep_reports_what_checking_every_draw_does(monkeypatch, name, fault, count):
    fault(monkeypatch)
    cfg = SweepConfig(n=3, window=(-1, 0), max_ht=3, seed=4)
    want = _every_draw_checked(name, cfg)
    assert len(want) == count
    for jobs in _JOBS:
        assert run_suite(name, cfg._replace(jobs=jobs)) == want, jobs


def test_a_sweep_checks_each_distinct_draw_once(monkeypatch):
    suite = verify._SUITES["crystal-axioms"]
    checked = []

    def counting(cfg, case):
        checked.append(case)
        return suite.check(cfg, case)

    monkeypatch.setitem(verify._SUITES, "crystal-axioms", suite._replace(check=counting))
    cfg = SweepConfig(n=2, max_ht=3, seed=1, cases=500)
    distinct = list(dict.fromkeys(suite.draw(cfg, idx) for idx in range(cfg.cases)))
    assert len(distinct) < cfg.cases
    assert run_suite("crystal-axioms", cfg) == []
    assert checked == distinct
    # nothing is remembered from one sweep to the next
    assert run_suite("crystal-axioms", cfg) == []
    assert checked == distinct * 2


def test_a_passing_sweep_reads_each_distinct_draw_once_and_walks_no_draw_again(monkeypatch):
    # bilinear's 10 000 draws at this size hold fewer distinct queries, and
    # none fails: the sweep reads each distinct case once and returns
    suite = verify._SUITES["bilinear"]
    read = []

    def reads(case):
        read.append(case)
        return suite.reads(case)

    monkeypatch.setitem(verify._SUITES, "bilinear", suite._replace(reads=reads))
    cfg = SweepConfig(n=2, window=(-1, 0), max_ht=2, seed=1)
    assert run_suite("bilinear", cfg) == []
    distinct = {suite.draw(cfg, idx) for idx in range(cfg.cases)}
    assert len(distinct) < cfg.cases
    assert len(read) == len(distinct) and set(read) == distinct


def _recording(monkeypatch, name, field):
    """The cases (draw: the indices) that the named suite's draw or check is called on."""
    suite = verify._SUITES[name]
    seen = []
    wrapped = getattr(suite, field)

    def recording(cfg, case):
        seen.append(case)
        return wrapped(cfg, case)

    monkeypatch.setitem(verify._SUITES, name, suite._replace(**{field: recording}))
    return seen


# crystal-axioms at n=3, window -1..0, seed 1: at height 3 its 10 000 draws
# cover the 29 multisegments, at height 4 they hold 61 of the 62
_COVERED = SweepConfig(n=3, window=(-1, 0), max_ht=3, seed=1)
_UNCOVERED = _COVERED._replace(max_ht=4)


def test_a_sweep_stops_drawing_once_every_case_is_drawn_and_passes(monkeypatch):
    drawn = _recording(monkeypatch, "crystal-axioms", "draw")
    checked = _recording(monkeypatch, "crystal-axioms", "check")
    assert next(run_all(_COVERED, ("crystal-axioms",))) == ("crystal-axioms", 10000, [])
    assert drawn == list(range(len(drawn))) and len(drawn) < 10000
    every = list(iter_multisegments(3, 3))
    assert len(every) == 29 and len(checked) == 29 and set(checked) == set(every)
    drawn.clear()
    checked.clear()
    assert run_suite("crystal-axioms", _UNCOVERED) == []
    assert drawn == list(range(10000)) and len(checked) == 61


@pytest.mark.parametrize("cfg", [_COVERED, _UNCOVERED], ids=["covered", "uncovered"])
@pytest.mark.parametrize("fault", [None, _star_raise_fails_at_height_three], ids=["sound", "star-raise-fault"])
def test_a_sweep_that_stops_reports_what_checking_every_draw_does(monkeypatch, cfg, fault):
    if fault is not None:
        fault(monkeypatch)
    want = _every_draw_checked("crystal-axioms", cfg)
    assert bool(want) == (fault is not None)
    for jobs in _JOBS:
        assert run_suite("crystal-axioms", cfg._replace(jobs=jobs)) == want, jobs


def test_the_multisegment_space_holds_every_draw():
    space = verify._SUITES["crystal-axioms"].space
    for n in range(1, 5):
        for ht in range(7):
            assert space(SweepConfig(n=n, max_ht=ht)) == len(list(iter_multisegments(n, ht))), (n, ht)
    for n, ht in ((1, 6), (3, 4), (4, 6)):
        cfg = SweepConfig(n=n, max_ht=ht, seed=5)
        every = set(iter_multisegments(n, ht))
        assert all(verify._draw_multisegment(cfg, idx) in every for idx in range(2000)), (n, ht)
    # past cfg.cases - 1 the heights alone outnumber the draws, so nothing is counted
    assert space(SweepConfig(n=64, max_ht=10**12)) is None
    assert space(SweepConfig(n=1, max_ht=50, cases=50)) is None


# ----------------------------------------------------------------------
# every suite's messages under injected faults, frozen


def _lower_keeps_two_slot_elements_at_two(monkeypatch):
    lowering = ExtendedCrystal.lowering

    def bad(self, c, i, k):
        return c if i == 2 and len(c.slots) == 2 else lowering(self, c, i, k)

    monkeypatch.setattr(ExtendedCrystal, "lowering", bad)


def _node_raise_keeps_the_weight_at_slot_zero(monkeypatch):
    raising = AffineModel.raising
    monkeypatch.setattr(AffineModel, "raising", lambda self, lam, i, k: lam if k == 0 else raising(self, lam, i, k))


def _flip_mirrors_two_slot_elements_through_one_half(monkeypatch):
    star_flip = ExtendedCrystal.star_flip

    def bad(self, c):
        return self.shift(star_flip(self, c), 1) if len(c.slots) == 2 else star_flip(self, c)

    monkeypatch.setattr(ExtendedCrystal, "star_flip", bad)


def _reduction_reads_five_counts(monkeypatch):
    # the name reduce-confluence calls; the operators keep the true kernel
    monkeypatch.setattr(verify, "reduce_runs", lambda counts: reduce_runs(list(counts)[:5]))


def _rank_one_lowering_skips_three(monkeypatch):
    lower_with = Sl2Crystal.lower_with
    monkeypatch.setattr(Sl2Crystal, "lower_with", lambda self, b, read: lower_with(self, b, read) + (b == 2))


def _pairing_d_one_too_high_at_slot_two(monkeypatch):
    d_invariant = PairingRead.d_invariant
    monkeypatch.setattr(PairingRead, "d_invariant", lambda self: d_invariant(self) + (self.k == 2))


_FAULTS = {
    fault.__name__: fault
    for fault in (
        _lower_keeps_two_slot_elements_at_two,
        _node_raise_keeps_the_weight_at_slot_zero,
        _left_form_skewed_at_slot_one,
        _break_shift_and_path,
        _shift_a_unit_in_the_word,
        _star_raise_fails_at_height_three,
        _flip_mirrors_two_slot_elements_through_one_half,
        _reduction_reads_five_counts,
        _rank_one_lowering_skips_three,
        _pairing_d_one_too_high_at_slot_two,
    )
}

_FROZEN_CFG = SweepConfig(n=3, window=(-1, 0), max_ht=3, seed=4, cases=2000)


def _summaries(cfg):
    """Per base suite: (size, count, first message, last message), the size alone
    if it passes, or the repr of what it raised."""
    names, out = base_suite_names(), {}
    while len(out) < len(names):
        try:
            for name, size, found in run_all(cfg, names[len(out) :]):
                out[name] = (size, len(found), found[0], found[-1]) if found else size
        except Exception as exc:
            # run_all ends with the suite that raised; go on from the next one
            out[names[len(out)]] = repr(exc)
    return out


# at _FROZEN_CFG: each suite's size, and under each fault every suite that does not
# pass, so a change to how the checks report must keep each message as it was
_FROZEN_SIZES = {
    "crystal-axioms": 2000,
    "reduce-confluence": 2000,
    "inverse-pairs": 114,
    "counters": 114,
    "weights": 114,
    "star-identities": 114,
    "star-flip": 114,
    "shift-commutation": 114,
    "connectedness": 114,
    "ext-properties": 114,
    "sl2": 16,
    "cr-commutation": 283,
    "hl-inverse": 283,
    "dual-commutation": 283,
    "sig-seq": 910,
    "root-axiom": 33,
    "duality-datum": 66,
    "bilinear": 2000,
    "shift-covariance": 2000,
    "graph-count": 1,
}
_FROZEN = {
    "_lower_keeps_two_slot_elements_at_two": {
        "inverse-pairs": (
            114, 498,
            "star-raise-of-lower: n=3 i=2 k=-1 elem='0:[1]'",
            "star-raise-of-lower: n=3 i=2 k=0 elem='-1:[3],[2],[1]'",
        ),
        "counters": (
            114, 228,
            "lower-selector-step: n=3 i=2 k=-1 elem='0:[1];-1:[1]'",
            "star-raise-selector-step: n=3 i=2 k=0 elem='0:[3];-1:[3],[2]'",
        ),
        "weights": (
            114, 228,
            "lower-weight-step: n=3 i=2 k=-1 elem='0:[1];-1:[1]'",
            "lower-height-step: n=3 i=2 k=0 elem='0:[3];-1:[3],[2]'",
        ),
        "star-identities": (
            114, 228,
            "flip-conjugates-lower: n=3 i=2 k=-1 elem='0:[1];-1:[1]'",
            "flip-conjugates-raise: n=3 i=2 k=0 elem='0:[3];-1:[3],[2]'",
        ),
        "connectedness": (114, 9, "path-replay: n=3 elem='0:2*[2];-1:[1]'", "path-replay: n=3 elem='0:[2],[1];-1:[3]'"),
        "ext-properties": (
            114, 1191,
            "star-raise-of-lower: n=3 i=2 k=-1 elem='0:[1]'",
            "path-replay: n=3 elem='0:[2],[1];-1:[3]'",
        ),
        "cr-commutation": (
            283, 342,
            "conversion-commutes-lower: n=3 i=2 k=-1 elem='1:[1];0:[1]'",
            "conversion-commutes-lower: n=3 i=2 k=0 elem='0:[3];-1:[3],[2]'",
        ),
        "graph-count": (
            1, 30,
            'graph-node-count: n=3 got=112 want=114',
            "graph-edge: n=3 i=2 k=-1 src='0:[3],[2];-1:[3]'",
        ),
    },
    "_node_raise_keeps_the_weight_at_slot_zero": {
        "cr-commutation": (
            283, 849,
            "conversion-commutes-raise: n=3 i=1 k=0 elem='1'",
            "conversion-commutes-raise: n=3 i=3 k=0 elem='-1:[3],[2],[1]'",
        ),
        "hl-inverse": (
            283, 1698,
            "raise-of-lower: n=3 i=1 k=0 elem='0'",
            "lower-of-raise: n=3 i=3 k=0 elem='(3,-4),(3,-2),(3,0)'",
        ),
        "dual-commutation": (
            283, 1698,
            "dual-shift-commutes-raise: n=3 i=1 k=-1 elem='0'",
            "dual-shift-commutes-raise: n=3 i=3 k=0 elem='(3,-4),(3,-2),(3,0)'",
        ),
    },
    "_left_form_skewed_at_slot_one": {
        "bilinear": (2000, 1018, "bilinear: n=3 i=2 k=1 elem='1'", "parity: n=3 i=3 k=1 elem='1'"),
        "shift-covariance": (
            2000, 647,
            "shift-covariance-left: n=3 i=2 k=1 t=-2 elem='1'",
            "shift-covariance-left: n=3 i=3 k=1 t=1 elem='1'",
        ),
    },
    "_break_shift_and_path": {
        "shift-commutation": (
            114, 1164,
            "shift-commutes-lower: n=3 i=2 k=-1 t=2 elem='0:[1]'",
            "shift-commutes-raise: n=3 i=3 k=0 t=2 elem='-1:[3],[2],[1]'",
        ),
        "connectedness": (114, 18, "path-length: n=3 elem='0:[1]'", "path-replay: n=3 elem='-1:[3]'"),
        "ext-properties": (
            114, 1182,
            "shift-commutes-lower: n=3 i=2 k=-1 t=2 elem='0:[1]'",
            "path-replay: n=3 elem='-1:[3]'",
        ),
        "shift-covariance": (
            2000, 23,
            "shift-covariance-left: n=3 i=3 k=0 t=2 elem='0:[3];-1:[3]'",
            "shift-covariance-right: n=3 i=2 k=1 t=2 elem='0:[1];-1:[1,2]'",
        ),
    },
    "_shift_a_unit_in_the_word": {
        "cr-commutation": (
            283, 574,
            "conversion-commutes-lower: n=3 i=1 k=0 elem='1:[1]'",
            "conversion-commutes-raise: n=3 i=3 k=-1 elem='0:[3];-1:[3],[2]'",
        ),
        "hl-inverse": (
            283, 1066,
            "lower-of-raise: n=3 i=1 k=-1 elem='0'",
            "lower-of-raise: n=3 i=3 k=0 elem='(3,-4),(3,-2),(3,0)'",
        ),
        "sig-seq": (
            910, 546,
            "signature-concat: n=3 i=1 k=-1 elem='2*(3,-4),(1,0)'",
            "signature-concat: n=3 i=3 k=0 elem='3*(3,8)'",
        ),
    },
    "_star_raise_fails_at_height_three": {
        "crystal-axioms": (
            2000, 658,
            "star-raise-definedness: n=3 i=2 elem='[1,2],[2]'",
            "star-raise-of-lower: n=3 i=2 elem='[1,2]'",
        ),
        "inverse-pairs": "AssertionError('negative branch selector guarantees a starred raise')",
        "counters": "AssertionError('negative branch selector guarantees a starred raise')",
        "weights": "AssertionError('negative branch selector guarantees a starred raise')",
        "star-identities": "AssertionError('negative branch selector guarantees a starred raise')",
        "shift-commutation": "AssertionError('negative branch selector guarantees a starred raise')",
        "ext-properties": "AssertionError('negative branch selector guarantees a starred raise')",
        "cr-commutation": "AssertionError('negative branch selector guarantees a starred raise')",
        "graph-count": "AssertionError('negative branch selector guarantees a starred raise')",
    },
    "_flip_mirrors_two_slot_elements_through_one_half": {
        "star-identities": (
            114, 996,
            "flip-conjugates-lower: n=3 i=1 k=-1 elem='0:[1]'",
            "flip-conjugates-lower: n=3 i=2 k=0 elem='-1:[3],[2],[1]'",
        ),
        "star-flip": (114, 54, "flip-weight: n=3 elem='0:[2];-1:[1]'", "flip-weight: n=3 elem='0:[3];-1:[3],[2]'"),
        "ext-properties": (
            114, 1050,
            "flip-conjugates-lower: n=3 i=1 k=-1 elem='0:[1]'",
            "flip-weight: n=3 elem='0:[3];-1:[3],[2]'",
        ),
    },
    "_reduction_reads_five_counts": {
        "reduce-confluence": (2000, 814, "reduce-confluence: n=3 sig='--+--+'", "reduce-confluence: n=3 sig='+-+---+'"),
    },
    "_rank_one_lowering_skips_three": {
        "sl2": (16, 7, 'sl2-oracle: n=3 k=-1 elem={-1: 2}', 'sl2-oracle: n=3 k=0 elem={-1: 3, 0: 2}'),
    },
    "_pairing_d_one_too_high_at_slot_two": {
        "root-axiom": (33, 3, "root-axiom: n=3 i=1 k=2 elem='0:[1]'", "root-axiom: n=3 i=3 k=2 elem='0:[3]'"),
        "duality-datum": (66, 6, 'duality-datum: n=3 i=1 j=2 k=2', 'duality-datum: n=3 i=3 j=2 k=2'),
        "shift-covariance": (
            2000, 184,
            "shift-covariance-d: n=3 i=3 k=-1 t=3 elem='0:[2]'",
            "shift-covariance-d: n=3 i=3 k=1 t=1 elem='1'",
        ),
    },
}


@pytest.mark.parametrize("fault", _FAULTS)
def test_every_suite_reports_a_fault_as_it_did(monkeypatch, fault):
    _FAULTS[fault](monkeypatch)
    assert _summaries(_FROZEN_CFG) == {**_FROZEN_SIZES, **_FROZEN[fault]}


def test_every_suite_finds_one_of_the_faults():
    found = {name for rows in _FROZEN.values() for name, row in rows.items() if isinstance(row, tuple)}
    assert found == set(base_suite_names())
