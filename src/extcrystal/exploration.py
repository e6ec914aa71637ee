"""Breadth-first exploration of a finite window of an extended crystal.

The closure runs over lowering and raising arrows (i, k) with k inside the
slot window, keeping only elements whose support stays inside the window and
whose total height stays under the bound.  Raising steps are recorded as the
reversed lowering edge, so the edge set consists of lowering arrows only.
Discovery order is deterministic: FIFO over nodes, slots ascending, then
index ascending, lowering before raising.
"""

from __future__ import annotations

import json

from .enumeration import _check_bounds
from .extended import ExtElement, ExtendedCrystal, format_ext_element


class ExploreGraph:
    """Explored nodes in discovery order plus deduplicated lowering edges."""

    def __init__(self, nodes: list[ExtElement], edges: list[tuple[int, int, int, int]]):
        self.nodes = nodes
        self.edges = edges

    def node_ids(self) -> dict[ExtElement, int]:
        return {c: idx for idx, c in enumerate(self.nodes)}

    def to_dot(self) -> str:
        lines = ["digraph extended_crystal {"]
        for idx, c in enumerate(self.nodes):
            lines.append(f'  {idx} [label="{format_ext_element(c)}"];')
        for src, dst, i, k in self.edges:
            lines.append(f'  {src} -> {dst} [label="({i},{k})"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        nodes = [
            {"id": idx, "slots": {str(k): str(b) for k, b in c}}
            for idx, c in enumerate(self.nodes)
        ]
        edges = [{"src": src, "dst": dst, "i": i, "k": k} for src, dst, i, k in self.edges]
        return json.dumps({"nodes": nodes, "edges": edges}, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"nodes {len(self.nodes)} edges {len(self.edges)}"]
        for idx, c in enumerate(self.nodes):
            lines.append(f"node {idx}: {format_ext_element(c)}")
        for src, dst, i, k in self.edges:
            lines.append(f"edge {src} -> {dst} ({i},{k})")
        return "\n".join(lines) + "\n"


def explore(ext: ExtendedCrystal, seed: ExtElement, window: tuple[int, int], max_ht: int) -> ExploreGraph:
    _check_bounds(window, max_ht)
    kmin, kmax = window
    if ext.total_height(seed) > max_ht:
        raise ValueError("seed exceeds the height bound")
    if any(not kmin <= k <= kmax for k in seed.support()):
        raise ValueError(f"seed support {seed.support()} leaves the window {kmin}..{kmax}")

    def admissible(c: ExtElement) -> bool:
        if ext.total_height(c) > max_ht:
            return False
        return all(kmin <= k <= kmax for k in c.support())

    order: dict[ExtElement, int] = {seed: 0}
    queue = [seed]
    raw_edges: set[tuple[ExtElement, ExtElement, int, int]] = set()
    head = 0
    while head < len(queue):
        c = queue[head]
        head += 1
        for k in range(kmin, kmax + 1):
            for i in ext.crystal.indices():
                d = ext.lowering(c, i, k)
                if admissible(d):
                    raw_edges.add((c, d, i, k))
                    if d not in order:
                        order[d] = len(queue)
                        queue.append(d)
                p = ext.raising(c, i, k)
                if admissible(p):
                    raw_edges.add((p, c, i, k))
                    if p not in order:
                        order[p] = len(queue)
                        queue.append(p)
    edges = sorted((order[s], order[d], i, k) for s, d, i, k in raw_edges)
    return ExploreGraph(nodes=queue, edges=edges)
