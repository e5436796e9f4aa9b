"""Seeded input sets of the four workloads.

``generate(workload, seed, size)`` returns the items of one pass.  The same
seed gives the same items, in the same order, and the items of one pass are
distinct.  Generation uses ``reference`` only, never grdcalc: the program
receives nothing but the generated inputs.

Seeded draws are stratified by genus band or by query kind, and kept away
from the items that set the quantiles, so that the metrics of a pass hardly
depend on the seed.
"""

from __future__ import annotations

import random

import reference

WORKLOADS = ("pieri-sweep", "assembly-sweep", "slope-sweep", "cli-queries")

SIZES = {
    "full": {
        # zeta^g on every rho = 0 shape with g <= pieri_g_max, plus
        # pieri_seeded indices b (with the power that fills the dimension)
        # drawn from the shapes with g <= pieri_seeded_g_max.  On larger
        # shapes the cost of an index varies a hundredfold from one index to
        # the next, and the quantiles would follow the seed.
        "pieri_g_max": 26,
        "pieri_seeded_g_max": 6,
        "pieri_seeded": 35,
        # every (triple, class) with 5 <= g <= assembly_g_max and d - r >= 3,
        # plus two seeded pencils from each band of even genera in [30, 120],
        # placed symmetrically in the band.  A pencil costs about g^1.8, and
        # the six of them about 40% of a pass; a symmetric pair costs nearly
        # the same wherever it falls, so the seed hardly moves items_per_s.
        "assembly_g_max": 24,
        "pencil_bands": 3,
        # the m-family for m <= slope_m_max, slope_per_band seeded triples
        # from each band of 20 genera up to 160, and the symbolic identity.
        # A report costs about g; the seeded triples of a band are drawn one
        # from each of slope_per_band runs of its pool in genus order, so
        # their total cost hardly depends on the seed.  The costliest seeded
        # triples (g near 160) cost as much as the member m = 17; the
        # members with m >= 19 make up the costliest tenth of the items, so
        # p90 falls between m = 19 and m = 20, clear of every seeded draw.
        "slope_m_max": 34,
        "slope_per_band": 14,
        "slope_bands": 8,
        # valid queries per subcommand, plus one query of every bad class:
        # 101 items, so that a pass alone holds ten samples beyond p90.
        "cli_per_kind": 14,
    },
    "smoke": {
        "pieri_g_max": 8,
        "pieri_seeded_g_max": 5,
        "pieri_seeded": 6,
        "assembly_g_max": 7,
        "pencil_bands": 1,
        "slope_m_max": 2,
        "slope_per_band": 1,
        "slope_bands": 2,
        "cli_per_kind": 1,
    },
}

PENCIL_G = (30, 120)
CLI_KINDS = ("invariants", "schubert", "picard", "families", "pushforward", "slope")
# Written by the worker before a cli pass; the path is relative to the checkout.
BAD_CONFIG = "perfbench/out/bad_g_max.cfg"
BAD_CONFIG_TEXT = "g_max=abc\n"


def generate(workload: str, seed: int, size: str = "full") -> list[dict]:
    """Items of one pass: the fixed part of the input set plus the seeded draws."""
    rng = random.Random(f"{workload}:{seed}")
    params = SIZES[size]
    items = {
        "pieri-sweep": _pieri,
        "assembly-sweep": _assembly,
        "slope-sweep": _slope,
        "cli-queries": _cli,
    }[workload](rng, params)
    for i, item in enumerate(items):
        item["id"] = i
    return items


def describe(items: list[dict]) -> dict:
    """Count and genus range of an input set."""
    gs = [it["g"] for it in items if it.get("g") is not None]
    return {"count": len(items), "g_min": min(gs, default=None), "g_max": max(gs, default=None)}


def _pieri(rng: random.Random, p: dict) -> list[dict]:
    items, pool = [], []
    for g, r, d in reference.rho_zero_triples(p["pieri_g_max"]):
        items.append({"g": g, "r": r, "d": d, "k": g, "b": [0] * (r + 1)})
        if g <= p["pieri_seeded_g_max"]:
            for j in range(1, g):
                pool += [{"g": g, "r": r, "d": d, "k": g - j, "b": list(b)}
                         for b in reference.box_indices(r + 1, d - r, r * j) if any(b)]
    return items + rng.sample(pool, p["pieri_seeded"])


def _assembly(rng: random.Random, p: dict) -> list[dict]:
    labels = ("alpha", "beta", "gamma")
    items = [{"g": g, "r": r, "d": d, "label": label}
             for g, r, d in reference.rho_zero_triples(p["assembly_g_max"], g_min=5)
             if d - r >= 3 for label in labels]
    evens = list(range(PENCIL_G[0], PENCIL_G[1] + 1, 2))
    n = p["pencil_bands"]
    for band in range(n):
        genera = evens[band * len(evens) // n:(band + 1) * len(evens) // n]
        i = rng.randrange(len(genera) // 2)
        for g in (genera[i], genera[-1 - i]):
            items.append({"g": g, "r": 1, "d": g // 2 + 1, "label": rng.choice(labels)})
    return items


def _slope(rng: random.Random, p: dict) -> list[dict]:
    family = [reference.m_family_triple(m) for m in range(1, p["slope_m_max"] + 1)]
    items = [{"kind": "report", "g": g, "r": r, "d": d, "m": m}
             for m, (g, r, d) in enumerate(family, 1)]
    width = 20
    for band in range(p["slope_bands"]):
        pool = [t for t in reference.rho_zero_triples(width * (band + 1), g_min=max(3, width * band + 1))
                if t not in family and reference.quadric_slope(*t)[1] != 0]
        n = min(p["slope_per_band"], len(pool))
        for k in range(n):
            g, r, d = rng.choice(pool[k * len(pool) // n:(k + 1) * len(pool) // n])
            items.append({"kind": "report", "g": g, "r": r, "d": d, "m": None})
    items.append({"kind": "symbolic", "g": None})
    return items


def _cli(rng: random.Random, p: dict) -> list[dict]:
    valid = sorted(reference.load_cli_reference().items())
    items = []
    for kind in CLI_KINDS:
        pool = [(q, sha) for q, sha in valid if q.split(" ", 1)[0] == kind]
        for query, sha in rng.sample(pool, p["cli_per_kind"]):
            argv = query.split(" ")
            items.append({"class": kind, "argv": argv, "g": _genus(argv),
                          "expect": {"exit": 0, "stdout": sha}})
    for name, make in BAD_INPUTS.items():
        argv, pattern, alt_value = make(rng)
        items.append({"class": "bad:" + name, "argv": argv, "g": _genus(argv),
                      "expect": {"exit": 1, "stderr": pattern, "or_value": alt_value}})
    rng.shuffle(items)
    return items


def _genus(argv: list[str]):
    value = argv[argv.index("--g") + 1] if "--g" in argv else ""
    return int(value) if value.lstrip("-").isdigit() else None


def _triple_args(g, r, d):
    return ["--g", str(g), "--r", str(r), "--d", str(d)]


def _rho_nonzero(rng):
    g, r = rng.randint(3, 12), rng.randint(1, 3)
    d = g + r - g // (r + 1) + rng.choice((-2, -1, 1, 2))
    head = rng.choice((["invariants"], ["slope"], ["families", "m21"],
                       ["pushforward", "--class", "alpha"]))
    return head + _triple_args(g, r, d), r"rho\(g=", None


def _pieri_unbounded(rng):
    # Known defect: the Pieri loop keeps running after the combination is
    # empty.  A fixed program may answer 0 (the correct degree) or refuse k.
    k = rng.randint(10 ** 7, 10 ** 9)
    return (["schubert", "--r", "1", "--d", "3", "--k", str(k), "--b", "0,0",
             "--method", "pieri"], r"--k|\bk\b", "0")


def _genus_zero(rng):
    # Known defect: g = 0 is accepted although a triple needs g >= 1.
    n = rng.randint(1, 6)
    return ["invariants"] + _triple_args(0, n, n), r"\bg\b|genus", None


# Every class of bad input: argv, a pattern the error message must match
# (it names the cause), and for one class an alternative correct answer.
# class-coeff, config-int, genus-zero and pieri-unbounded are the defects
# known at the time the benchmark was written; they count as failed items.
BAD_INPUTS = {
    "rho-nonzero": _rho_nonzero,
    "bad-int": lambda rng: (["invariants", "--g", rng.choice(("x", "1.5", "ten")), "--r", "1",
                             "--d", "3"], r"invalid int value", None),
    "missing-arg": lambda rng: (["invariants", "--g", str(rng.randint(2, 20)), "--r", "1"],
                                r"required: --d", None),
    "unknown-command": lambda rng: ([rng.choice(("frobnicate", "slopes", "pull"))],
                                    r"invalid choice", None),
    "bad-index": lambda rng: (["schubert", "--r", "1", "--d", "3", "--k", "4", "--b",
                               rng.choice(("0,x", "a,b", "0;0"))], r"bad index", None),
    "unordered-index": lambda rng: (["schubert", "--r", "1", "--d", "4", "--k", "3", "--b",
                                     rng.choice(("2,1", "3,0", "1,0"))],
                                    r"not weakly increasing", None),
    "shape": lambda rng: (["schubert", "--r", str(rng.randint(4, 9)), "--d", "3", "--k", "1",
                           "--b", "0,0"], r"0 <= r <= d", None),
    "slope-args": lambda rng: (["slope", "--m", str(rng.randint(1, 4))] + _triple_args(21, 6, 24),
                               r"exactly one of", None),
    "missing-h": lambda rng: (rng.choice((["families", "marked"] + _triple_args(6, 2, 6),
                                          ["picard", "pullback", "k", "--g", "7", "--class", "psi:1"])),
                              r"needs --h", None),
    "class-symbol": lambda rng: (["picard", "pullback", "i", "--g", str(rng.randint(5, 9)),
                                  "--class", rng.choice(("mu:1", "delta_x:2", "epsilon_2:1"))],
                                 r"not in the basis", None),
    "class-coeff": lambda rng: (["picard", "pullback", rng.choice("ij"), "--g",
                                 str(rng.randint(5, 9)), "--class", "psi:abc"], r"abc", None),
    "low-genus": lambda rng: (["picard", "pullback", rng.choice("ij"), "--g",
                               str(rng.randint(2, 4)), "--class", "psi:1"], r"needs g >= 5", None),
    "pole": lambda rng: (rng.choice((["slope"], ["pushforward", "--class", "gamma"]))
                         + _triple_args(2, 1, 2), r"pole", None),
    "config-missing": lambda rng: (["invariants"] + _triple_args(4, 1, 3)
                                   + ["--config", f"perfbench/out/missing-{rng.randint(0, 999)}.cfg"],
                                   r"cannot read config file", None),
    "config-int": lambda rng: (["verify", "--config", BAD_CONFIG], r"g_max", None),
    "genus-zero": _genus_zero,
    "pieri-unbounded": _pieri_unbounded,
}


def cli_universe() -> list[list[str]]:
    """Every valid query the cli workload may draw, at small sizes."""
    triples = reference.rho_zero_triples(12, g_min=3)
    queries = []
    for g, r, d in reference.rho_zero_triples(16):
        for fmt in ([], ["--format", "tsv"], ["--format", "pretty"]):
            queries.append(["invariants"] + _triple_args(g, r, d) + fmt)
    for r in range(1, 4):
        for d in range(r + 1, r + 5):
            dim = (r + 1) * (d - r)
            for w in range(dim + 1):
                if (dim - w) % r:
                    continue
                for b in reference.box_indices(r + 1, d - r, w):
                    queries.append(["schubert", "--r", str(r), "--d", str(d), "--k",
                                    str((dim - w) // r), "--b", ",".join(map(str, b)),
                                    "--method", "both"])
    for g in range(5, 10):
        classes = ["lambda:1,psi:-2", f"delta_1:3/2,delta_{g - 1}:1", f"delta_{g - 2}:2,psi:-1",
                   "delta_0:1,delta_2:-1", ",".join(f"delta_{i}:{i + 1}" for i in range(g))]
        for text in classes:
            for m in "ij":
                queries.append(["picard", "pullback", m, "--g", str(g), "--class", text])
            for h in range(1, g):
                queries.append(["picard", "pullback", "k", "--g", str(g), "--h", str(h),
                                "--class", text])
    for g, r, d in triples:
        if g >= 5:
            queries.append(["families", "m21"] + _triple_args(g, r, d))
            queries.append(["families", "mogb"] + _triple_args(g, r, d))
            for h in range(1, g):
                queries.append(["families", "marked"] + _triple_args(g, r, d) + ["--h", str(h)])
            for label in ("alpha", "beta", "gamma"):
                queries.append(["pushforward"] + _triple_args(g, r, d)
                               + ["--class", label, "--method", "both"])
    for g, r, d in reference.rho_zero_triples(16, g_min=3):
        queries.append(["slope"] + _triple_args(g, r, d))
    for m in range(1, 4):
        queries.append(["slope", "--m", str(m)])
        queries.append(["slope", "--sweep", str(m)])
    return queries
