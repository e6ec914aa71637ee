"""Top-level acceptance gate.

Each test covers one acceptance criterion and prints a single summary line
to the real stdout so the verdicts stay visible inside a captured pytest
run. All expected values are exact; the two timed criteria use wall-clock
budgets that hold comfortably on commodity hardware.
"""

import random
import sys
import time

from extcrystal.affine import AffineModel, HLNode, parse_hl_weight
from extcrystal.enumeration import random_ext_element
from extcrystal.extended import ExtendedCrystal, parse_ext_element
from extcrystal.invariants import d_invariant, lambda_left, lambda_right
from extcrystal.msegment import MultisegmentCrystal, Segment, parse_multisegment
from extcrystal.rootdata import CartanA
from extcrystal.verify import SweepConfig, run_all, run_suite
from support import add_node, node_of_segment, remove_node, sign_at

DEMO = "(3,-4),(1,-2),(3,-2),2*(2,-1),(2,1),(1,2),(2,3),2*(3,4),(2,5),(2,7)"


def report(num, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {num:02d} {label}: {verdict}{suffix}", file=sys.__stdout__)


def test_01_worked_example_replay():
    model = AffineModel(3)
    lam = parse_hl_weight(DEMO)
    want_0 = remove_node(lam, HLNode(3, 4))
    want_1 = add_node(remove_node(lam, HLNode(2, -1)), HLNode(1, -2))
    best = float("inf")
    results = []
    for _ in range(5):
        start = time.perf_counter()
        results = [model.lowering(lam, 1, 0), model.lowering(lam, 1, -1)]
        best = min(best, time.perf_counter() - start)
    exact = results == [want_0, want_1]
    ok = exact and best < 0.001
    report(1, "worked-example-replay", ok, f"best {best * 1000:.3f} ms, exact={exact}")
    assert exact
    assert best < 0.001


def test_02_signature_position_lists():
    model = AffineModel(3)
    expected = {
        (1, 0): [(1, 0, "-"), (1, 2, "+"), (2, 1, "-"), (2, 3, "+"), (3, 2, "-"), (3, 4, "+")],
        (1, -1): [(3, -4, "-"), (3, -2, "+"), (2, -3, "-"), (2, -1, "+"), (1, -2, "-"), (1, 0, "+")],
    }
    ok = True
    for (i, k), rows in expected.items():
        nodes = model.signature_nodes(i, k)
        got = [(nodes[t - 1].i, nodes[t - 1].a, sign_at(t)) for t in range(1, 7)]
        ok = ok and got == rows
    report(2, "signature-position-lists", ok)
    assert ok


def test_03_block_tables():
    model = AffineModel(3)
    expected = {
        -1: {(3, -4), (2, -3), (1, -2), (3, -2), (2, -1), (3, 0)},
        0: {(1, 0), (2, 1), (1, 2), (3, 2), (2, 3), (1, 4)},
        1: {(3, 4), (2, 5), (1, 6), (3, 6), (2, 7), (3, 8)},
    }
    ok = True
    for k, table in expected.items():
        got = {(p.i, p.a) for p in model.block_nodes(k)}
        ok = ok and got == table
    report(3, "block-tables", ok)
    assert ok


def test_04_segment_node_dictionary():
    model = AffineModel(3)
    base = {
        Segment(1, 1): HLNode(1, 0),
        Segment(2, 2): HLNode(1, 2),
        Segment(3, 3): HLNode(1, 4),
        Segment(1, 2): HLNode(2, 1),
        Segment(2, 3): HLNode(2, 3),
        Segment(1, 3): HLNode(3, 2),
    }
    checked = 0
    ok = True
    for k in (-1, 0, 1):
        for seg, base_node in base.items():
            node = node_of_segment(model, seg, k)
            ok = ok and node == model.dual_shift(base_node, k)
            ok = ok and model.segment_of_node(node) == (seg, k)
            checked += 1
    report(4, "segment-node-dictionary", ok and checked == 18, f"{checked} positions")
    assert ok
    assert checked == 18


def test_05_node_model_commutation_sweep():
    total = 0
    violations = []
    elapsed_n3 = 0.0
    for n in (1, 2, 3):
        cfg = SweepConfig(n=n, window=(-2, 1), max_ht=4)
        start = time.perf_counter()
        [(_name, size, found)] = run_all(cfg, ("cr-commutation",))
        took = time.perf_counter() - start
        if n == 3:
            elapsed_n3 = took
        violations += found
        total += size
    ok = not violations and elapsed_n3 < 60.0
    report(5, "node-model-commutation-sweep", ok,
           f"{total} elements, n=3 in {elapsed_n3:.1f} s")
    assert not violations, violations[:3]
    assert elapsed_n3 < 60.0


def test_06_extended_operator_properties():
    total = 0
    violations = []
    for n in (1, 2, 3):
        cfg = SweepConfig(n=n, window=(-2, 2), max_ht=4)
        [(_name, size, found)] = run_all(cfg, ("ext-properties",))
        violations += found
        total += size
    ok = not violations
    report(6, "extended-operator-properties", ok, f"{total} elements")
    assert not violations, violations[:3]


def test_07_one_string_oracle():
    cfg = SweepConfig(n=1, window=(-3, 3), max_ht=5)
    [(_name, size, violations)] = run_all(cfg, ("sl2",))
    ok = not violations
    report(7, "one-string-oracle", ok, f"{size} elements")
    assert not violations, violations[:3]


def test_08_pairing_invariant_axioms():
    checked = 0
    ok = True
    for n in (1, 2, 3, 4):
        ext = ExtendedCrystal(MultisegmentCrystal(n))
        cartan = CartanA(n)
        for i in range(1, n + 1):
            own = ext.inject(parse_multisegment(f"[{i}]"), 0)
            for k in range(-5, 6):
                want = 1 if k in (-1, 1) else 0
                ok = ok and d_invariant(ext, own, i, k) == want
                checked += 1
            for j in range(1, n + 1):
                if i == j:
                    continue
                other = ext.inject(parse_multisegment(f"[{j}]"), 0)
                ok = ok and d_invariant(ext, other, i, 0) == -cartan.entry(i, j)
                checked += 1
                for k in (-5, -3, -2, -1, 1, 2, 3, 5):
                    ok = ok and d_invariant(ext, other, i, k) == 0
                    checked += 1
    ext3 = ExtendedCrystal(MultisegmentCrystal(3))
    rng = random.Random(2024)
    for _ in range(10000):
        c = random_ext_element(rng, ext3, (-3, 3), 6)
        i = rng.randint(1, 3)
        k = rng.randint(-5, 5)
        ok = ok and lambda_left(ext3, c, i, k) + lambda_right(ext3, c, i, k) == 2 * d_invariant(ext3, c, i, k)
        checked += 1
    report(8, "pairing-invariant-axioms", ok, f"{checked} checks")
    assert ok


def test_09_base_crystal_axioms():
    violations = []
    for n in (1, 2, 3, 4):
        cfg = SweepConfig(n=n, max_ht=8, cases=10000)
        violations += run_suite("crystal-axioms", cfg)
        violations += run_suite("reduce-confluence", cfg)
    ok = not violations
    report(9, "base-crystal-axioms", ok, "4 ranks x 10000 random elements")
    assert not violations, violations[:3]


def test_10_concatenated_signature_rule():
    total = 0
    violations = []
    for n in (2, 3):
        cfg = SweepConfig(n=n, window=(0, 0), max_ht=4)
        [(_name, size, found)] = run_all(cfg, ("sig-seq",))
        violations += found
        total += size
    ok = not violations
    report(10, "concatenated-signature-rule", ok, f"{total} weights")
    assert not violations, violations[:3]
