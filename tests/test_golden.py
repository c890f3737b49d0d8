"""Same CLI bytes on a fixed corpus.

Each case runs ``idealform.cli.main`` in process on a fixed document or
flag set and compares the exit code and the sha256 of stdout and stderr
with the values recorded in GOLDEN. A refactor that keeps the program's
output passes unchanged; a change that means to alter the output updates
the table, which ``python tests/test_golden.py`` prints.
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from idealform.cli import main


def _sos(d: int, width: int) -> list[list[int]]:
    return [list(range(i, i + width)) for i in range(1, d + 1)]


def _cdc(alternatives, encoding) -> dict:
    return {"kind": "cdc", "cdc": {"alternatives": alternatives, "encoding": encoding}}


# Six pieces, so Proposition 3 does not apply and the provenance path is
# "general", with jumps at breakpoints 2 and 6. Jumps at 3 and 6 leave the
# code differences short of the code space: a dimension deficit.
def _pwl(intercepts) -> dict:
    return {"kind": "pwl",
            "pwl": {"breakpoints": [0, 1, 3, 4, 6, 7, 9],
                    "slopes": [5, 3, 2, "1/2", -1, -4],
                    "intercepts": intercepts, "encoding": "gray"}}


# A continuous function over d pieces, with a jump of +1 at each breakpoint
# in `jumps`; fractional slopes put "p/q" strings in the recovery points. A
# jump outside the middle quarter spans keeps Proposition 3's certificate.
def _pwl_jumps(d: int, *jumps: int) -> dict:
    slopes = [Fraction((i * 7) % 11 - 5, 1 + i % 3) for i in range(d)]
    intercepts = [Fraction(0)]
    for i in range(1, d):
        step = (slopes[i - 1] - slopes[i]) * i + (1 if i + 1 in jumps else 0)
        intercepts.append(intercepts[-1] + step)
    return {"kind": "pwl",
            "pwl": {"breakpoints": list(range(d + 1)),
                    "slopes": [str(x) for x in slopes],
                    "intercepts": [str(x) for x in intercepts], "encoding": "gray"}}


# An explicit encoding: a corner simplex plus the all-ones code, hole-free.
EXPLICIT = {
    "kind": "cdc",
    "cdc": {
        "alternatives": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1, 6]],
        "encoding": {"explicit": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]},
    },
}

# The same codes lifted by their coordinate sum: a hull with an equation.
FLAT = {
    "kind": "cdc",
    "cdc": {
        "alternatives": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1]],
        "encoding": {"explicit": [[0, 0, 0, 0], [1, 0, 0, 1], [0, 1, 0, 1],
                                  [0, 0, 1, 1], [1, 1, 1, 3]]},
    },
}

# The formulate output for SOS2 over four alternatives, less its provenance,
# for verify.
SOS2_D4_FORMULATION = {
    "variables": {"lambda": {"count": 5, "lower": 0},
                  "z": {"count": 2, "integer": True, "bounds": [[0, 1], [0, 1]]}},
    "equalities": [{"lambda": [1, 1, 1, 1, 1], "z": [0, 0], "rhs": 1}],
    "general_rows": [
        {"normal": [0, 1], "lower": [0, 0, 0, 1, 1], "upper": [0, 0, 1, 1, 1]},
        {"normal": [1, 0], "lower": [0, 0, 1, 0, 0], "upper": [0, 1, 1, 1, 0]},
    ],
}

# The annulus --d 4 output under each family, less its provenance, for
# verify against an annulus problem document.
ANNULUS_D4_FORMULATIONS = {
    "gray": {
        "variables": {"lambda": {"count": 8, "lower": 0},
                      "z": {"count": 2, "integer": True, "bounds": [[0, 1], [0, 1]]}},
        "equalities": [{"lambda": [1] * 8, "z": [0, 0], "rhs": 1}],
        "general_rows": [
            {"normal": [0, 1], "lower": [0, 0, 0, 0, 1, 1, 0, 0],
             "upper": [0, 0, 1, 1, 1, 1, 1, 1]},
            {"normal": [1, 0], "lower": [0, 0, 1, 1, 0, 0, 0, 0],
             "upper": [1, 1, 1, 1, 1, 1, 0, 0]},
        ],
        "recovery": {"kind": "annulus", "epigraph": False, "points": None},
    },
    "zigzag": {
        "variables": {"lambda": {"count": 8, "lower": 0},
                      "z": {"count": 2, "integer": True, "bounds": [[0, 2], [0, 1]]}},
        "equalities": [{"lambda": [1] * 8, "z": [0, 0], "rhs": 1}],
        "general_rows": [
            {"normal": [0, 1], "lower": [0, 0, 0, 0, 1, 1, 0, 0],
             "upper": [0, 0, 1, 1, 1, 1, 1, 1]},
            {"normal": [1, -2], "lower": [0, 0, -1, -1, -1, -1, 0, 0],
             "upper": [1, 1, 1, 1, 0, 0, 0, 0]},
            {"normal": [1, 0], "lower": [0, 0, 1, 1, 1, 1, 0, 0],
             "upper": [1, 1, 1, 1, 2, 2, 2, 2]},
        ],
        "recovery": {"kind": "annulus", "epigraph": False, "points": None},
    },
}

# The pwl output for the pwl-jumps document, less its provenance, for
# verify: the jumps at x = 1 and x = 7 give nine ground points.
PWL_JUMPS_FORMULATION = {
    "variables": {"lambda": {"count": 9, "lower": 0},
                  "z": {"count": 3, "integer": True,
                        "bounds": [[0, 1], [0, 1], [0, 1]]}},
    "equalities": [{"lambda": [1] * 9, "z": [0, 0, 0], "rhs": 1}],
    "general_rows": [
        {"normal": [0, 0, 1], "lower": [0, 0, 0, 0, 0, 0, 1, 1, 1],
         "upper": [0, 0, 0, 0, 0, 1, 1, 1, 1]},
        {"normal": [0, 1, 0], "lower": [0, 0, 0, 0, 1, 1, 1, 1, 1],
         "upper": [0, 0, 0, 1, 1, 1, 1, 1, 1]},
        {"normal": [1, 0, 0], "lower": [0, 0, 1, 1, 0, 0, 0, 1, 1],
         "upper": [0, 0, 1, 1, 1, 0, 0, 1, 1]},
    ],
    "recovery": {"kind": "pwl", "epigraph": True,
                 "points": [[str(x), str(y)] for x, y in
                            [(0, 0), (1, 5), (1, 7), (3, 13), (4, 15), (6, 16),
                             (7, 15), (7, 17), (9, 9)]]},
}

DOCUMENTS = {
    "sos2": _cdc(_sos(8, 2), "gray"),
    "sos3": _cdc(_sos(8, 3), "gray"),
    "pwl-jumps": _pwl([0, 4, 7, 13, 22, 45]),
    "pwl-jumps-formulation": PWL_JUMPS_FORMULATION,
    "pwl-deficit": _pwl([0, 2, 7, 13, 22, 45]),
    "pwl-d64-one-jump": _pwl_jumps(64, 5),
    "pwl-d512-one-jump": _pwl_jumps(512, 5),
    # Jumps in both middle quarter spans, none on a coordinate's only step.
    "pwl-d100-two-jumps": _pwl_jumps(100, 30, 70),
    "pwl-d128-two-jumps": _pwl_jumps(128, 40, 90),
    "explicit": EXPLICIT,
    "flat": FLAT,
    "sos2-d4": _cdc(_sos(4, 2), "gray"),
    "sos2-d4-formulation": SOS2_D4_FORMULATION,
    # Without its second general row the relaxation gains vertices of no
    # alternative: verify fails and names them.
    "sos2-d4-one-row": {**SOS2_D4_FORMULATION,
                        "general_rows": SOS2_D4_FORMULATION["general_rows"][:1]},
    "sos2-d4-no-rhs": {**SOS2_D4_FORMULATION,
                       "equalities": [{"lambda": [1, 1, 1, 1, 1], "z": [0, 0]}]},
    **{f"annulus-d4-{enc}": {"kind": "annulus", "annulus": {"d": 4, "encoding": enc}}
       for enc in ANNULUS_D4_FORMULATIONS},
    **{f"annulus-d4-{enc}-formulation": f for enc, f in ANNULUS_D4_FORMULATIONS.items()},
}

# One malformed problem document per field reader, each run through formulate.
MALFORMED = {
    "alternatives-not-a-list": {"kind": "cdc", "cdc": {"alternatives": 5}},
    "float-in-explicit-row": {
        "kind": "cdc",
        "cdc": {**EXPLICIT["cdc"],
                "encoding": {"explicit": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                                          [1, 1, 1.0]]}},
    },
    "float-slope": {"kind": "pwl",
                    "pwl": {**_pwl([0, 4, 7, 13, 22, 45])["pwl"],
                            "slopes": [5, 3, 2, 0.5, -1, -4]}},
    "ragged-explicit-rows": _cdc([[1, 2], [2, 3], [3, 4], [4, 1]],
                                 {"explicit": [[0, 0], [1], [1, 1], [0, 1]]}),
    "unknown-check": {**_cdc(_sos(8, 2), "gray"), "options": {"check": "full"}},
    "annulus-d6": {"kind": "annulus", "annulus": {"d": 6}},
    "unknown-kind": {"kind": "milp", "milp": {}},
    "repeated-explicit-rows": _cdc([[1, 2], [2, 3]], {"explicit": [[0], [0]]}),
    "empty-explicit-rows": _cdc([[1, 2], [2, 3]], {"explicit": [[], []]}),
    # "explicit" is no family: explicit codes are given as rows.
    "explicit-string": _cdc([[1, 2], [2, 3]], "explicit"),
}
DOCUMENTS.update({f"malformed-{name}": doc for name, doc in MALFORMED.items()})

CASES = {
    **{f"formulate-{name}-{enc}": ["formulate", name, "--encoding", enc]
       for name in ("sos2", "sos3") for enc in ("gray", "zigzag")},
    "formulate-sos2-gray-ideal": ["formulate", "sos2", "--check", "ideal"],
    "formulate-explicit": ["formulate", "explicit"],
    "formulate-explicit-lp": ["formulate", "explicit", "--format", "lp"],
    # The override replaces the document's explicit rows.
    "formulate-explicit-zigzag": ["formulate", "explicit", "--encoding", "zigzag"],
    "formulate-flat": ["formulate", "flat", "--check", "ideal"],
    # A lower-dimensional explicit encoding: its eq_k lines carry z terms.
    "formulate-flat-lp": ["formulate", "flat", "--format", "lp"],
    **{f"pwl-jumps-{enc}": ["pwl", "pwl-jumps", "--encoding", enc]
       for enc in ("gray", "zigzag")},
    "pwl-jumps-gray-lp": ["pwl", "pwl-jumps", "--encoding", "gray", "--format", "lp"],
    "pwl-deficit": ["pwl", "pwl-deficit"],
    "pwl-d64-one-jump": ["pwl", "pwl-d64-one-jump"],
    "pwl-d512-one-jump": ["pwl", "pwl-d512-one-jump"],
    **{f"pwl-{name}-zigzag-validity": ["pwl", f"pwl-{name}", "--encoding", "zigzag",
                                       "--check", "validity"]
       for name in ("d100-two-jumps", "d128-two-jumps")},
    **{f"annulus-d8-{enc}-{fmt}": ["annulus", "--d", "8", "--encoding", enc, "--format", fmt]
       for enc in ("gray", "zigzag") for fmt in ("json", "lp")},
    **{f"annulus-d256-zigzag-{fmt}": ["annulus", "--d", "256", "--encoding", "zigzag",
                                      "--format", fmt] for fmt in ("json", "lp")},
    **{f"annulus-d512-{enc}-{fmt}": ["annulus", "--d", "512", "--encoding", enc,
                                     "--format", fmt]
       for enc in ("gray", "zigzag") for fmt in ("json", "lp")},
    "annulus-d64-radii": ["annulus", "--d", "64", "--inner", "1", "--outer", "2"],
    **{f"encode-{kind}-s{s}": ["encode", "--kind", kind, "--s", str(s)]
       for kind in ("gray", "zigzag") for s in range(1, 5)},
    **{f"malformed-{name}": ["formulate", f"malformed-{name}"] for name in MALFORMED},
    "verify-ideal": ["verify", "sos2-d4", "sos2-d4-formulation"],
    "verify-validity": ["verify", "sos2-d4", "sos2-d4-formulation", "--check", "validity"],
    "verify-one-row": ["verify", "sos2-d4", "sos2-d4-one-row"],
    "verify-malformed": ["verify", "sos2-d4", "sos2-d4-no-rhs"],
    # A pwl problem document: its ground set and codes reach the check.
    "verify-pwl-jumps": ["verify", "pwl-jumps", "pwl-jumps-formulation"],
    # An annulus problem document: its disjunction and codes reach the check.
    **{f"verify-annulus-d4-{enc}": ["verify", f"annulus-d4-{enc}",
                                    f"annulus-d4-{enc}-formulation"]
       for enc in ANNULUS_D4_FORMULATIONS},
    # Certificates at d = 32 and 64, each under a second.
    "annulus-d32-zigzag-ideal": ["annulus", "--d", "32", "--encoding", "zigzag",
                                 "--check", "ideal"],
    "annulus-d64-gray-ideal": ["annulus", "--d", "64", "--encoding", "gray",
                               "--check", "ideal"],
    # A warning is one line on stderr, with no source path in it.
    "annulus-d4-inner-zero": ["annulus", "--d", "4", "--inner", "0", "--outer", "1"],
}

# case -> (exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = {
    'annulus-d8-gray-json': (0,
        '84e1a8f4bb11d700eb4b0cb87e0758e3a6f912f2e68c7edaa15885b87c466ca0',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'annulus-d8-gray-lp': (0,
        '3eb15fc3c47bc16ea6595e78147be472dc7f51c1a43dac97a3a09ab7f52ab987',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'annulus-d8-zigzag-json': (0,
        '30446cdc07f7c4953fd233a25e08f3b325ec5b888cb326598958ae2b9c7835d7',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'annulus-d8-zigzag-lp': (0,
        'c98020ffd46d14739d199b8bf8f5b3882775a2edb1c9956449ac617886876238',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'encode-gray-s1': (0,
        '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        '688b1122aab6f1e2188e9cbeab974a3e2d2e0e49d829a50836d9cc79d7f41d3e'),
    'encode-gray-s2': (0,
        '31a32fcad2e65192fcf5759d9028fa9bf8a6d09f7c6a7499afd027c9d1fb8664',
        '688b1122aab6f1e2188e9cbeab974a3e2d2e0e49d829a50836d9cc79d7f41d3e'),
    'encode-gray-s3': (0,
        'e9be0f3efc9ed830e6880cf0a60f81fffdcfb883f39a1320774b86380678e396',
        '688b1122aab6f1e2188e9cbeab974a3e2d2e0e49d829a50836d9cc79d7f41d3e'),
    'encode-gray-s4': (0,
        '0181a30886fab8a1ebc0c73aac5944a776f5498499bb16cab8204310f2fc8c22',
        '688b1122aab6f1e2188e9cbeab974a3e2d2e0e49d829a50836d9cc79d7f41d3e'),
    'encode-zigzag-s1': (0,
        '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        '688b1122aab6f1e2188e9cbeab974a3e2d2e0e49d829a50836d9cc79d7f41d3e'),
    'encode-zigzag-s2': (0,
        '179b44381fcb80c417f95bf08bd3c5c7a94dbd2a6332f47e0492006acac8b48e',
        '688b1122aab6f1e2188e9cbeab974a3e2d2e0e49d829a50836d9cc79d7f41d3e'),
    'encode-zigzag-s3': (0,
        'b8c419a1999c46cfa47ea311b5b5e2fa19ccaea866537837d0447914592cb1a3',
        '688b1122aab6f1e2188e9cbeab974a3e2d2e0e49d829a50836d9cc79d7f41d3e'),
    'encode-zigzag-s4': (0,
        '2436fc560baff94d3815fc9e5024fbb9fbe0af3ea43b898fdd31cdf538f572ca',
        '688b1122aab6f1e2188e9cbeab974a3e2d2e0e49d829a50836d9cc79d7f41d3e'),
    'formulate-explicit': (0,
        'b1829480f500584b5dabd7a439e28d944488ac7c6f5551a6d2ec17cdb14071f1',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'formulate-explicit-lp': (0,
        'edea16e872501e66dd576afee0469c7519ac5f7a2d40b9ddabdfadf0a3d9aa33',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'formulate-flat': (0,
        '497ccd9f27545d2d978b9f8d88d65a54717d785fac83d6ca246aab39f85c80e7',
        'c78d1fdbadcd464961cf5c9c9b431cc73c43f31a2428ac39b174df0e9e2fc29d'),
    'formulate-sos2-gray': (0,
        '3907762935d789fd7ad8408b3f1bf707481d73bae71692eccabb086f98528049',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'formulate-sos2-gray-ideal': (0,
        'ba59f2542169f26e50b3a52250c370dfb9d2ee521edb7b1d84a1d90fb2e8c30a',
        '528ccdb2aab87d07d1b71c440883c1a8f4ecf292b539c5590cd165fecfda0fbf'),
    'formulate-sos2-zigzag': (0,
        '79c435100094d5322475cf8f81a2bbd50b6904d8734c3e2ce9ef271bc4f368c1',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'formulate-sos3-gray': (0,
        'a4cb496fdd4a5073011aa9e72885d8f66d54f76b4351d7229809af81c62bd553',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'formulate-sos3-zigzag': (0,
        'a10e7ac7c8f34006cc798cb7070959f7549f76db93994202199b97f5583b0322',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pwl-deficit': (2,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '6aa9365a002d5cb78429e77eb8eacde9860f7e36c99e281c20204a23f85cb356'),
    'pwl-jumps-gray': (0,
        'a33673e770184a47f1471d6688294fd75b0120ad44fdd97697c76ec3ccd0002c',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pwl-jumps-zigzag': (0,
        '9dc121a5882871404a2be1719df73755328fc4b4ceb62bfb2f742c0d0047d7f6',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'malformed-alternatives-not-a-list': (1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '3a1ce1a1aa82dd26d8d0575e54e4b4edd4adc8c322e141968b4d5032df0336eb'),
    'malformed-annulus-d6': (1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'c56d14edd6bb963fa7f5d7377c05214f50f63e88f7be6ec554ac3fbbe98a48b2'),
    'malformed-float-in-explicit-row': (1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '266b30142545e2910d89ecad862747659ccf29a0077598b77c91bf0b876f458f'),
    'malformed-float-slope': (1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '9132ff0dd20a562d9e0099a7464908e3258d0be6fb11ada623da9a063f8e22a2'),
    'malformed-unknown-check': (1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'e6924db1907fe0955b533b08ff0fa3916597954da52e4742123b36754749b469'),
    'malformed-unknown-kind': (1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'cffe9d0b8ba2ed1d7fce2e6c6441d5ebbe6bff35a11ebd19fa0953cdfb98422b'),
    'verify-ideal': (0,
        'bf389516f91e06882d0f1f6724a9b341bb8eb200f31bd5e2c36cb007f084b9e8',
        'f4be86e63af52b226024f75174bf54448b6be1d7fa7374226309a31f50be0249'),
    'verify-one-row': (3,
        'b9d37d6e6570d618ae361ff16e7f8a8ae4207cf330503ce151514f737bcb9d3e',
        'a4e0044ae0739fae99fbc0dd783dbf5bc4362b56157a907c4d18bae8f761d1c9'),
    'verify-validity': (0,
        '2585961237c460ed267f75067357a73d0e11a533288f295693a6bc9fd24ea24f',
        'ff76873a8460f60a605de8cdad973b270db1c5cd1ab6cad5a63993e63792c6c2'),
    'verify-malformed': (1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '2dbc095a4cf034b48ce8dae195e726c66fecb5535e7883474dd5d86f3a9a7334'),
    'annulus-d256-zigzag-json': (0,
        '1a7e4e52429a3a60899ba251baf58faf49a014d6f9c4ead26b5db4758aaf8d56',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'annulus-d256-zigzag-lp': (0,
        '1033212627bb30b6364b4659cc240bfb344da9e9b0f77b073ac0cffcbb4452b6',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'annulus-d64-radii': (0,
        '065b731de09d90c3b30762459f7e767b0b091cf712ae79fc4f47ac6e9746da3f',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pwl-d64-one-jump': (0,
        'f0ba9798dcf64aa890b35440e7dc3f9b5d5c6ee31a2007a23cc77b2747412435',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'malformed-ragged-explicit-rows': (1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'c6de6c2af7478d8541723e3f7af89120c15cbf3193c9479619f1e36b16e144ce'),
    'annulus-d32-zigzag-ideal': (0,
        '4919618d009b903b1b961a5e534bb478b7c4458c2c4043be3192c09fd93a53f7',
        '5749bd14883e1e5e40d07c70197e2044acb1573523f5f0220ef2c8c812192ddb'),
    'annulus-d64-gray-ideal': (0,
        '7b0c7b4b2e3f73bfdcfe64a88904ed1eb394127e1341006f25b32bcf11d37578',
        '72cad3a5549d9cc021bc66cd063b894b76be9dac54c19d27d997597ea45dde62'),
    'annulus-d4-inner-zero': (0,
        '78c2394f2a433622518262f28f630bb581466f2b546962d8de7633a58f656aa8',
        'b5991426d7890e062ea94966af9a6e6d9c709a1f8d7944e2962972974d14320b'),
    'malformed-empty-explicit-rows': (1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'c9d9bd72b9ba7daba521b4a3f7f3c2b3b6e8ee55008ca1fe5c0efbac3fb5ec79'),
    'malformed-repeated-explicit-rows': (1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '294910eb3f1f455df054ccc00013b797786557fbf93f1433b58278c2b8ab4acc'),
    'pwl-d100-two-jumps-zigzag-validity': (0,
        'b7332b8e7e2287d0dee33de04d07bc643d7bbbf4cf249a50431d32dd54e7ec84',
        'ff76873a8460f60a605de8cdad973b270db1c5cd1ab6cad5a63993e63792c6c2'),
    'pwl-d128-two-jumps-zigzag-validity': (0,
        '734a0869ff8962ff0bbdafb3cd4ad1961e6c396cbaef7c199442467f8723dedb',
        'ff76873a8460f60a605de8cdad973b270db1c5cd1ab6cad5a63993e63792c6c2'),
    'annulus-d512-gray-lp': (0,
        'fed7cf811cd28b9e685ffae3ef8cde68a63fdea50a6cb3c190cc9e04f23abe7e',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'annulus-d512-zigzag-lp': (0,
        'ec1744f417ceb4f89a192c61faeaacd40643905300aa2c4c306fefacb11aee24',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'formulate-flat-lp': (0,
        '59d4ef4fa31a39d5e975f3694fbca54545d8585dbd46c0b014f10f2e068c4388',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pwl-jumps-gray-lp': (0,
        '97486f352f04acca35522e3cfc391940bb55de417b59afd1f3ac69ddd8b6ab84',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'annulus-d512-gray-json': (0,
        'd6f589736781e969ec73e881f2fb6e7e53c7e8bc7f4920175d78da974aa31ce7',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'annulus-d512-zigzag-json': (0,
        '03307341d282f8dcd25494904f4c877215959d01de8f2a170c6757f23b0d2f37',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pwl-d512-one-jump': (0,
        '89f2cce584f4b3061a84941c6348ee75132070d9c6016a9b49c6b158889c4f60',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'formulate-explicit-zigzag': (0,
        '00cc1631a075f1ecc001ac5526eb1c66526aabc91bd5b2fef63c7c94cf71f769',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-annulus-d4-gray': (0,
        'de378cf1f60718e359549f8d16006f390895c929ef6b0eefc858b59c632dd95a',
        '528ccdb2aab87d07d1b71c440883c1a8f4ecf292b539c5590cd165fecfda0fbf'),
    'verify-annulus-d4-zigzag': (0,
        'de378cf1f60718e359549f8d16006f390895c929ef6b0eefc858b59c632dd95a',
        '528ccdb2aab87d07d1b71c440883c1a8f4ecf292b539c5590cd165fecfda0fbf'),
    'malformed-explicit-string': (1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'b9fa5c30d3d12c9a6d25d4c960873361a8fbfaab8b35170bb1eba14df58bc7a1'),
    'verify-pwl-jumps': (0,
        '32baa9c5ef3a08293ab4eacae7b5d57bfc60c1fdb48b772b1be2f1b76cf46ced',
        'd95b6afaec95feb423ed18a3214b08df291e9ba59040ea4aed56ff76eebe7f33'),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(argv, root: Path) -> tuple[int, str, str]:
    """Exit code and the sha256 of stdout and stderr of one CLI run."""
    paths = {}
    for name, doc in DOCUMENTS.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([paths.get(arg, arg) for arg in argv])
    return code, _sha(out.getvalue()), _sha(err.getvalue())


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bytes_match_the_recorded_corpus(case, tmp_path):
    assert run_case(CASES[case], tmp_path) == GOLDEN[case]


def test_every_case_is_recorded():
    assert sorted(GOLDEN) == sorted(CASES)


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as root:
            code, out, err = run_case(CASES[case], Path(root))
        print(f"    {case!r}: ({code},\n        {out!r},\n        {err!r}),")
    print("}")
