"""Seeded problem corpora, one per workload.

Every workload is a list of CLI invocations over problem documents that this
module generates from a seed; the program under test sees only the written
documents. The seed changes values (random disjunctions, function values,
jump positions, budgets), never instance sizes, so the work in a pass stays
nearly the same from seed to seed. No invocation in any corpus is expected
to fail: jumps are placed where the pipeline still has every code step it
needs, and random disjunctions are connected.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

@dataclass(frozen=True)
class Instance:
    """One CLI invocation and what its output must show.

    ``gamma`` and ``points`` are checked when given: the paired-row count of
    the emitted formulation, and for an ideality check the number of
    embedding points, which must equal both the expected and the found
    vertex counts.
    """

    name: str
    command: str
    check: str
    r: int
    document: str | None = None
    formulation: str | None = None
    d: int | None = None
    encoding: str | None = None
    fmt: str = "json"
    gamma: int | None = None
    points: int | None = None
    sizes: dict = field(default_factory=dict)

    @property
    def output(self) -> str | None:
        """Output file name; None when the result goes to stdout."""
        if self.command == "verify":
            return None
        return f"{self.name}.{self.fmt}"

    def argv(self, root: str) -> list[str]:
        args = [self.command]
        for name in (self.document, self.formulation):
            if name is not None:
                args.append(os.path.join(root, name))
        if self.d is not None:
            args += ["--d", str(self.d)]
        if self.encoding is not None:
            args += ["--encoding", self.encoding]
        args += ["--check", self.check]
        if self.output is not None:
            args += ["--format", self.fmt, "--out", os.path.join(root, self.output)]
        return args


@dataclass(frozen=True)
class Problem:
    """A separable MILP: minimise the sum of the costs, their x summing to budget.

    Each cost is named; its document is ``document_name(cost)`` and its
    formulation under an encoding is the output of instance
    ``f"{cost}-{encoding}"``.
    """

    name: str
    costs: tuple[str, ...]
    budget: int


def document_name(name: str) -> str:
    return f"{name}.problem.json"


@dataclass
class Corpus:
    workload: str
    seed: int
    documents: dict[str, dict] = field(default_factory=dict)
    instances: list[Instance] = field(default_factory=list)
    problems: list[Problem] = field(default_factory=list)

    def write(self, root: str) -> None:
        for name, doc in self.documents.items():
            with open(os.path.join(root, name), "w") as handle:
                json.dump(doc, handle, indent=1)

    def describe(self) -> list[dict]:
        return [{"name": i.name, "command": i.command, "check": i.check,
                 "format": i.fmt, **i.sizes} for i in self.instances]


def bits(d: int) -> int:
    return math.ceil(math.log2(d))


def _cdc_doc(n: int, alternatives, encoding: str) -> dict:
    return {"kind": "cdc",
            "cdc": {"n": n, "alternatives": [sorted(a) for a in alternatives],
                    "encoding": encoding}}


def sos_windows(d: int, width: int) -> list[list[int]]:
    """SOS-k: alternative i allows the `width` consecutive elements from i."""
    return [list(range(i, i + width)) for i in range(1, d + 1)]


def random_connected_alternatives(rng: random.Random, d: int) -> list[set[int]]:
    """d distinct alternatives, each sharing an element with an earlier one.

    Sharing makes the intersection digraph weakly connected, so the code
    differences span the code hull and the general pipeline accepts it.
    """
    alternatives: list[set[int]] = []
    top = 0
    while len(alternatives) < d:
        fresh = rng.randint(0 if alternatives else 1, 2)
        alt = set(range(top + 1, top + 1 + fresh))
        if alternatives:
            alt.add(rng.choice(sorted(rng.choice(alternatives))))
        if alt not in alternatives:
            alternatives.append(alt)
            top += fresh
    return alternatives


def pwl_body(rng: random.Random, d: int, jumps, encoding: str = "gray") -> dict:
    """A concave piecewise-linear function with a jump at each given breakpoint.

    Breakpoint j (1-based, interior) is where segment j-1 meets segment j.
    Every value is an integer, so the document is exact.
    """
    breakpoints = [rng.randint(0, 5)]
    for _ in range(d):
        breakpoints.append(breakpoints[-1] + rng.randint(1, 3))
    slopes = sorted((rng.randint(-20, 20) for _ in range(d)), reverse=True)
    intercepts = []
    value = rng.randint(-10, 10)
    for i in range(d):
        intercept = value - slopes[i] * breakpoints[i]
        if i + 1 in jumps:
            intercept += rng.choice((-1, 1)) * rng.randint(1, 5)
        intercepts.append(intercept)
        value = slopes[i] * breakpoints[i + 1] + intercept
    return {"kind": "pwl",
            "pwl": {"breakpoints": breakpoints, "slopes": slopes,
                    "intercepts": intercepts, "encoding": encoding}}


def fast_path_jump(rng: random.Random, d: int) -> int:
    """A jump position that keeps the unit-normal closed form applicable.

    Breakpoint d/2+1 is the one both middle quarter spans contain, and it is
    also the only step of either code family that moves the top coordinate.
    """
    return rng.choice([j for j in range(2, d + 1) if j != d // 2 + 1])


def _pwl_sizes(doc: dict) -> dict:
    body = doc["pwl"]
    d = len(body["slopes"])
    values = [(s * t + b, s * t_next + b) for s, b, t, t_next in
              zip(body["slopes"], body["intercepts"], body["breakpoints"],
                  body["breakpoints"][1:])]
    jumps = sum(1 for (_, end), (start, _) in zip(values, values[1:]) if end != start)
    return {"d": d, "n": d + 1 + jumps, "r": bits(d), "jumps": jumps}


class _CorpusMaker:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.corpus = Corpus(workload, seed)

    def document(self, name: str, doc: dict) -> str:
        file_name = document_name(name)
        self.corpus.documents[file_name] = doc
        return file_name

    def add(self, instance: Instance) -> Instance:
        self.corpus.instances.append(instance)
        return instance

    def cdc(self, name: str, n: int, alternatives, encoding: str, check: str) -> None:
        d = len(alternatives)
        doc = self.document(name, _cdc_doc(n, alternatives, encoding))
        points = sum(len(a) for a in alternatives) if check == "ideal" else None
        self.add(Instance(name, "formulate", check, bits(d), document=doc,
                          points=points, sizes={"d": d, "n": n, "r": bits(d)}))

    def random_cdc(self, name: str, d: int, encoding: str, check: str) -> None:
        alternatives = random_connected_alternatives(self.rng, d)
        n = max(max(a) for a in alternatives)
        self.cdc(name, n, alternatives, encoding, check)

    def pwl(self, name: str, doc: dict, check: str, encoding: str | None = None,
            gamma: int | None = None, verify: bool = False) -> None:
        file_name = self.document(name, doc)
        sizes = _pwl_sizes(doc)
        d, r = sizes["d"], sizes["r"]
        points = 2 * d if check == "ideal" else None
        produced = self.add(Instance(name, "pwl", check, r, document=file_name,
                                     encoding=encoding, gamma=gamma, points=points,
                                     sizes=sizes))
        if verify:
            self.add(Instance(f"verify-{name}", "verify", check, r,
                              document=file_name, formulation=produced.output,
                              points=points, sizes=sizes))

    def annulus(self, d: int, encoding: str, check: str, fmt: str = "json") -> None:
        r = bits(d)
        gamma = r if encoding == "gray" else r * (r + 1) // 2
        points = 4 * d if check == "ideal" else None
        name = f"annulus-{encoding}-d{d}-{check}-{fmt}"
        self.add(Instance(name, "annulus", check, r, d=d, encoding=encoding,
                          fmt=fmt, gamma=gamma, points=points,
                          sizes={"d": d, "n": 2 * d, "r": r}))


def _general_pipeline(b: _CorpusMaker) -> None:
    # Both gates and the hyperplane enumeration; no certificate.
    for d in (4, 8, 12, 16):
        b.cdc(f"sos2-zigzag-d{d}", d + 1, sos_windows(d, 2), "zigzag", "none")
    for d in (4, 8, 16):
        b.cdc(f"sos2-gray-d{d}", d + 1, sos_windows(d, 2), "gray", "none")
    b.cdc("sos3-zigzag-d8", 10, sos_windows(8, 3), "zigzag", "none")
    for d, width in ((8, 3), (16, 3), (16, 4)):
        b.cdc(f"sos{width}-gray-d{d}", d + width - 1, sos_windows(d, width),
              "gray", "none")
    # Jumps in both middle quarter spans force the general path.
    b.pwl("pwl-zigzag-d8-general", pwl_body(b.rng, 8, (3, 6), "zigzag"), "none")
    # Small random disjunctions stay below the median instance in cost, so
    # the seed moves neither the median nor the tail instance.
    for i in range(3):
        b.random_cdc(f"random-gray-{i}", b.rng.randint(4, 6), "gray", "none")


def _certify_ideal(b: _CorpusMaker) -> None:
    # Vertex enumeration; closed forms skip the gates and the enumeration of
    # hyperplanes.
    for d in (4, 8):
        for encoding in ("gray", "zigzag"):
            b.annulus(d, encoding, "ideal")
    for d, width in ((4, 2), (5, 2), (6, 2), (8, 2), (4, 3)):
        b.cdc(f"sos{width}-gray-d{d}", d + width - 1, sos_windows(d, width),
              "gray", "ideal")
    for d in (4, 6):
        b.cdc(f"sos2-zigzag-d{d}", d + 1, sos_windows(d, 2), "zigzag", "ideal")
    # The jump position sets the enumeration's work, so it does not vary.
    for encoding, jump in (("gray", 3), ("zigzag", 7)):
        doc = pwl_body(b.rng, 8, (jump,), encoding)
        b.pwl(f"pwl-{encoding}-d8", doc, "ideal", gamma=3, verify=True)


def _emit_closed_forms(b: _CorpusMaker) -> None:
    # Closed-form constructions, emitters and the validity scan; no gate, no enumeration.
    b.annulus(32, "gray", "none")
    for d in (128, 256, 512):
        for encoding in ("gray", "zigzag"):
            for fmt in ("json", "lp"):
                b.annulus(d, encoding, "none", fmt)
    b.pwl("pwl-gray-d512", pwl_body(b.rng, 512, (fast_path_jump(b.rng, 512),)),
          "none", gamma=9)
    b.annulus(32, "gray", "validity")
    b.pwl("pwl-gray-d64-validity",
          pwl_body(b.rng, 64, (fast_path_jump(b.rng, 64),)),
          "validity", gamma=6, verify=True)


MILP_PROBLEMS = 2
MILP_COSTS = 12
MILP_PIECES = 16


def _downstream_milp(b: _CorpusMaker) -> None:
    # Each cost is formulated under both code families; the MILP solves
    # that follow compare them with the one-binary-per-segment model.
    r = bits(MILP_PIECES)
    for p in range(MILP_PROBLEMS):
        costs = []
        for k in range(MILP_COSTS):
            jumps = (fast_path_jump(b.rng, MILP_PIECES),) if b.rng.random() < 0.5 else ()
            doc = pwl_body(b.rng, MILP_PIECES, jumps)
            name = f"p{p}-cost{k}"
            file_name = b.document(name, doc)
            costs.append(name)
            for encoding in ("gray", "zigzag"):
                b.add(Instance(f"{name}-{encoding}", "pwl", "none", r,
                               document=file_name, encoding=encoding, gamma=r,
                               sizes=_pwl_sizes(doc)))
        bodies = [b.corpus.documents[document_name(c)]["pwl"] for c in costs]
        low = sum(body["breakpoints"][0] for body in bodies)
        high = sum(body["breakpoints"][-1] for body in bodies)
        budget = low + round((high - low) * b.rng.uniform(0.3, 0.7))
        b.corpus.problems.append(Problem(f"p{p}", tuple(costs), budget))


_MAKERS = {
    "general_pipeline": _general_pipeline,
    "certify_ideal": _certify_ideal,
    "emit_closed_forms": _emit_closed_forms,
    "downstream_milp": _downstream_milp,
}
WORKLOADS = tuple(_MAKERS)


def build_corpus(workload: str, seed: int) -> Corpus:
    maker = _CorpusMaker(workload, seed)
    _MAKERS[workload](maker)
    return maker.corpus
