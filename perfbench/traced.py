"""Spans around the program's own stage calls, for a traced pass.

For the length of a traced pass, ``traced_stages`` replaces each stage
function listed in STAGES, in every idealform module that holds it, with a
version that runs the original inside a span of the tracer. The benchmark
then calls ``idealform.cli.main`` exactly as in an untraced pass. The spans
follow whatever the CLI actually calls, in whatever order and however
often, and the originals are restored when the pass ends.

Counters are computed from the public API, from each stage's arguments and
result. They are queued on the tracer and settled after the pass, so their
cost lies outside every span.
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from math import comb, prod

from idealform import Formulation, pwl_prop3_applicable
from idealform.encoding import code_bounds
from idealform.linalg import rank, vec

from spans import Tracer


def hole_points(e) -> int:
    """Non-code lattice points of the code box: the gate's feasibility tests."""
    return prod(hi - lo + 1 for lo, hi in code_bounds(e)) - e.d


def normal_subsets(deduped) -> int:
    """C(k, m-1): the direction subsets the hyperplane enumeration walks."""
    m = rank([vec(v) for v in deduped])
    return comb(len(deduped), m - 1)


def base_vertices(f: Formulation) -> int:
    """Vertices of the simplex-times-box polytope the enumeration starts from."""
    return f.n_lambda * prod(len({lo, hi}) for lo, hi in f.z_bounds)


def row_count(f: Formulation) -> int:
    """Rows the certificate applies: equalities plus both sides of each pair."""
    return len(f.equalities) + 2 * f.gamma


# Counters: (tracer, the stage's arguments by parameter name, its result).
def _convex_position(t: Tracer, a: dict, result) -> None:
    t.count("encoding.convex_position_calls", a["e"].d)


def _hole_free(t: Tracer, a: dict, result) -> None:
    t.count("encoding.hole_points", hole_points(a["e"]))


def _digraph(t: Tracer, a: dict, result) -> None:
    t.count("cdc.arcs", len(result.arcs))


def _directions(t: Tracer, a: dict, result) -> None:
    t.count("cdc.directions", len(result.deduped))


def _normals(t: Tracer, a: dict, result) -> None:
    t.count("cdc.normal_subsets", normal_subsets(a["directions"]))
    t.count("cdc.normals", len(result))


def _general_rows(t: Tracer, a: dict, result) -> None:
    t.count("cdc.general_rows", len(result))


def _pwl(t: Tracer, a: dict, result) -> None:
    t.count("pwl.documents")
    if pwl_prop3_applicable(a["f"]):
        t.count("pwl.fast_path")


def _enumerate(t: Tracer, a: dict, result) -> None:
    t.count("verify.base_vertices", base_vertices(a["f"]))
    t.count("verify.cuts", row_count(a["f"]))
    t.count("verify.vertices", len(result.vertices))


def _validity(t: Tracer, a: dict, result) -> None:
    points = sum(len(alt) for alt in a["c"].alternatives)
    t.count("verify.validity_row_evals", points * row_count(a["f"]))


def _document_bytes(t: Tracer, a: dict, result) -> None:
    t.count("documents.bytes", len(result.encode()))


def _lp_bytes(t: Tracer, a: dict, result) -> None:
    t.count("lp_format.bytes", len(result.encode()))


# (defining module, function) -> (span name, counter or None).
STAGES = {
    ("idealform.cli", "build_parser"): ("cli.args", None),
    ("idealform.encoding", "is_in_convex_position"):
        ("encoding.convex_position", _convex_position),
    ("idealform.encoding", "is_hole_free"): ("encoding.hole_free", _hole_free),
    ("idealform.cdc", "intersection_digraph"): ("cdc.digraph", _digraph),
    ("idealform.cdc", "difference_directions"): ("cdc.directions", _directions),
    ("idealform.cdc", "check_dim_condition"): ("cdc.dim_condition", None),
    ("idealform.cdc", "spanned_hyperplane_normals"): ("cdc.normals", _normals),
    ("idealform.cdc", "formulation_equalities"): ("cdc.rows", None),
    ("idealform.cdc", "rows_for_normals"): ("cdc.rows", _general_rows),
    ("idealform.pwl", "pwl_ground_set"): ("pwl.ground_set", None),
    ("idealform.pwl", "pwl_formulation"): ("pwl.formulation", _pwl),
    ("idealform.annulus", "annulus_gray_formulation"): ("annulus.formulation", None),
    ("idealform.annulus", "annulus_zigzag_formulation"): ("annulus.formulation", None),
    ("idealform.verify", "embedding_extreme_points"): ("verify.embedding", None),
    ("idealform.verify", "enumerate_vertices"): ("verify.enumerate", _enumerate),
    ("idealform.verify", "check_validity_only"): ("verify.validity", _validity),
    ("idealform.documents", "parse_problem"): ("documents.parse", None),
    ("idealform.documents", "emit_structured"): ("documents.emit", None),
    ("idealform.documents", "document_text"): ("documents.emit", _document_bytes),
    ("idealform.documents", "formulation_from_document"): ("documents.reparse", None),
    ("idealform.lp_format", "emit_lp_text"): ("lp_format.emit", _lp_bytes),
}


def _spanned(t: Tracer, name: str, fn, counter):
    signature = inspect.signature(fn)

    def settle(tracer, args, kwargs, result):
        counter(tracer, signature.bind(*args, **kwargs).arguments, result)

    @functools.wraps(fn)
    def staged(*args, **kwargs):
        with t.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            t.count_later(settle, args, kwargs, result)
        return result

    return staged


def _spanned_parser(t: Tracer, name: str, fn, counter):
    """build_parser, with both the build and the parser's parse_args in spans."""
    build = _spanned(t, name, fn, counter)

    @functools.wraps(fn)
    def staged(*args, **kwargs):
        parser = build(*args, **kwargs)
        parser.parse_args = _spanned(t, name, parser.parse_args, None)
        return parser

    return staged


def missing_stages() -> list[str]:
    """Stages of STAGES that this version of the program does not define."""
    return [f"{module}.{attr}" for module, attr in STAGES
            if not callable(getattr(sys.modules.get(module), attr, None))]


@contextmanager
def traced_stages(t: Tracer):
    """Route every idealform reference to a stage through a spanned version.

    A stage the program no longer defines is skipped, and its layer reads 0.
    """
    wrappers = {}
    for (module, attr), (name, counter) in STAGES.items():
        fn = getattr(sys.modules.get(module), attr, None)
        if callable(fn) and id(fn) not in wrappers:
            wrap = _spanned_parser if attr == "build_parser" else _spanned
            wrappers[id(fn)] = (fn, wrap(t, name, fn, counter))
    patched = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "idealform"
                                  or module_name.startswith("idealform.")):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                patched.append((module, attr, value))
                setattr(module, attr, entry[1])
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
