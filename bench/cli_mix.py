"""Seeded generator of ``triplecover`` command lines and the checks on their output.

This module never imports ``triplecover``: it only builds argv lists, the exit
code each one must produce and the column keys its output must carry, so the
benchmark checks the program against expectations derived independently.
"""

from __future__ import annotations

import csv
import io
import json
import random

# Exact call counts per class in one pass of the 200-call mix.  Fixed counts
# rather than sampled shares keep every seed's mix the same shape.
SHARES = {
    "light": 120,
    "verify": 26,
    "audit_near_bound": 4,
    "eval": 20,
    "eval_verbose": 10,
    "pushpull": 10,
    "usage": 10,
}

FORMATS = ("table", "csv", "json")

KEYS = {
    "rho": ["g", "r", "d", "rho"],
    "count": ["g", "r", "d", "rho", "count"],
    "eval": ["g", "d", "expr", "canonical", "value"],
    "pushpull": ["g", "d", "k", "expr", "result", "result_sym_index"],
    "cs-bound": ["g", "h", "max_degree"],
    "lemma11": ["g", "n", "satisfied"],
    "theorem-a": ["h", "g", "e", "parity", "critical_degree", "lhs", "rhs", "lhs_via_expansion", "strict"],
    "audit": ["h", "g", "e", "parity", "step", "lhs", "relation", "rhs", "holds", "detail"],
    "miranda": ["g", "h", "delta", "det_e_degree", "n", "deg_m", "deg_l", "fx_fiber_coeff"],
    "lemma21": ["g", "h", "parity", "twist_degree_2d", "bound_m", "bound_l", "vanishing_guaranteed"],
    "lemma21-per-delta": [
        "g", "h", "delta", "twist_degree_2d", "deg_m_twisted", "deg_l_twisted", "bound_m", "bound_l",
    ],
    "reducedness": ["h", "parity", "direct", "alternative"],
    "cyclic": ["g", "h", "t", "branch_count", "k1", "k2", "dim_h0", "dim_h1", "dim_h2", "n1_lower", "n2_lower"],
    "gap": ["g", "h", "t", "cs_bound", "composed_below", "largest_excluded", "exists_at_most", "theorem_a_degree"],
    "feasible": ["g", "h", "t", "feasible", "ell"],
}


def genus_bound(h: int) -> int:
    """(2m+1)(m+1) with m = floor((3h+1)/2), the smallest genus theorem-a covers."""
    m = (3 * h + 1) // 2
    return (2 * m + 1) * (m + 1)


def audit_exit(h: int, g: int) -> int:
    """Exit code ``audit`` must give: 1 when a genus-dependent step of the
    chain fails, else 0.  The thresholds restate the chain's steps:
    cs_window, equidim_genus, residual_case and mm_vs_cs."""
    e = h // 2
    n = (3 * h + 1) // 2 + 2
    beta_cap = 9 * e + 4 if h % 2 == 0 else 9 * e + 10
    residual_cap = g - 7 if h % 2 == 0 else g - 15
    holds = (
        2 * (n + 1) <= g - 3 * h
        and g >= (2 * n - 3) * (n - 1)
        and 12 * e < residual_cap
        and 2 * beta_cap <= g - 3 * h
    )
    return 0 if holds else 1


def _cyclic_t(rng: random.Random, g: int, h: int, normalized: bool) -> int:
    branch = g - 3 * h + 2
    lo = -(-branch // 2) if normalized else 0
    choices = [t for t in range(lo, branch + 1) if (t - (2 * g - 2)) % 3 == 0]
    return rng.choice(choices)


def _light(rng: random.Random) -> tuple[list[str], str]:
    cmd = rng.choice(
        ["rho", "count", "cs-bound", "lemma11", "miranda", "lemma21", "reducedness", "cyclic", "gap", "feasible"]
    )
    if cmd == "rho":
        g = rng.randint(2, 200)
        return ["rho", "--g", str(g), "--r", str(rng.randint(1, 4)), "--d", str(rng.randint(1, 2 * g))], cmd
    if cmd == "count":
        # rho == 0 exactly when g = (r+1)k and d = g - k + r.
        r, k = rng.randint(1, 3), rng.randint(1, 60)
        g = (r + 1) * k
        return ["count", "--g", str(g), "--r", str(r), "--d", str(g - k + r)], cmd
    if cmd == "lemma11":
        return ["lemma11", "--g", str(rng.randint(0, 400)), "--n", str(rng.randint(1, 30))], cmd
    if cmd == "reducedness":
        return ["reducedness", "--h", str(rng.randint(1, 60))], cmd
    h = rng.randint(1, 12)
    if cmd == "feasible":
        g = rng.randint(3 * h - 1, 12 * h + 20)
        return ["feasible", "--g", str(g), "--h", str(h), "--t", str(rng.randint(0, g))], cmd
    if cmd in ("cyclic", "gap"):
        g = rng.randint(3 * h + 4, 12 * h + 20)  # leaves every t residue class a value
        t = _cyclic_t(rng, g, h, normalized=cmd == "gap")
        return [cmd, "--g", str(g), "--h", str(h), "--t", str(t)], cmd
    g = rng.randint(3 * h, 12 * h + 40)
    if cmd == "cs-bound":
        return ["cs-bound", "--g", str(g), "--h", str(h)], cmd
    if cmd == "miranda":
        return ["miranda", "--g", str(g), "--h", str(h), "--all"], cmd
    if rng.random() < 0.5:
        return ["lemma21", "--g", str(g), "--h", str(h), "--per-delta"], "lemma21-per-delta"
    return ["lemma21", "--g", str(g), "--h", str(h)], "lemma21"


def _verify(rng: random.Random) -> tuple[list[str], str, int]:
    h = rng.randint(1, 8)
    base = genus_bound(h)
    # Half the calls sit just above the bound, where audit steps can fail.
    g = base + (rng.randint(0, 20) if rng.random() < 0.5 else rng.randint(0, 300))
    if rng.random() < 0.5:
        return ["theorem-a", "--h", str(h), "--g", str(g)], "theorem-a", 0
    return ["audit", "--h", str(h), "--g", str(g)], "audit", audit_exit(h, g)


def _audit_near_bound(rng: random.Random) -> tuple[list[str], str, int]:
    # From the bound up to g = 22 (h = 1) and g = 31 (h = 2) some chain steps
    # fail, so every mix holds calls that must exit 1.
    h = rng.randint(1, 2)
    g = genus_bound(h) + rng.randint(0, 7 if h == 1 else 3)
    return ["audit", "--h", str(h), "--g", str(g)], "audit", audit_exit(h, g)


EVAL_TEMPLATES = (
    "(x+theta+1)^{n}*bn1({d})",
    "(2*x-theta/3+1/2)^{n}",
    "(x+theta)^{n}-{c}*theta^{k}*x",
    "bn1({d})^2*(x+1)^{n}",
)
EVAL_POWERS = (10, 16, 22, 26, 30)


def _eval(rng: random.Random, index: int) -> list[str]:
    # Every (template, power) pair appears once per SHARES["eval"] calls, and
    # d >= 60 exceeds every total degree, so no monomial is truncated: the
    # cost of the eval calls is the same for every seed.
    template = EVAL_TEMPLATES[index % len(EVAL_TEMPLATES)]
    n = EVAL_POWERS[index // len(EVAL_TEMPLATES) % len(EVAL_POWERS)]
    g = rng.randint(70, 80)
    d = rng.randint(60, g)
    expr = template.format(n=n, d=d, c=rng.randint(1, 9), k=rng.randint(1, 5))
    return ["eval", "--g", str(g), "--d", str(d), "--expr", expr]


def _eval_verbose(rng: random.Random) -> list[str]:
    g = rng.randint(2, 10)
    d = rng.randint(1, 6)
    k = rng.randint(2, 8)
    expr = rng.choice([f"(x+theta+1)^{k}", f"bn1({d})*x^{rng.randint(0, 4)}", f"(x-theta)^{k}+theta^{g + 1}"])
    return ["eval", "--verbose", "--g", str(g), "--d", str(d), "--expr", expr]


def _pushpull(rng: random.Random) -> list[str]:
    g = rng.randint(2, 40)
    d = rng.randint(2, 30)
    k = rng.randint(0, d)
    expr = f"x^{rng.randint(0, d)}+{rng.randint(1, 9)}*x^{rng.randint(0, d)}-x"
    return ["pushpull", "--g", str(g), "--d", str(d), "--k", str(k), "--expr", expr]


def _usage(rng: random.Random) -> list[str]:
    g = rng.randint(5, 60)
    return rng.choice(
        [
            ["frobnicate", "--g", str(g)],
            ["rho", "--g", str(g)],
            ["rho", "--g", "x", "--r", "1", "--d", "2"],
            ["count", "--g", str(2 * g + 1), "--r", "1", "--d", "3"],
            ["eval", "--g", str(g), "--d", "3", "--expr", "bn1(2)"],
            ["eval", "--g", str(g), "--d", "3", "--expr", "x/0"],
            ["eval", "--g", str(g), "--d", "3", "--expr", "x+*theta"],
            ["theorem-a", "--h", "3"],
            ["miranda", "--g", str(g), "--h", "2"],
            ["rho", "--g", str(g), "--r", "1", "--d", "2", "--format", "xml"],
            ["cyclic", "--g", str(g), "--h", "1", "--t", str(g + 5)],
        ]
    )


def build_mix(seed: int) -> list[dict]:
    """One pass of the mix: 200 calls, each with its argv, expected exit
    code and, for successful calls, the output format and key list."""
    rng = random.Random(seed)
    calls: list[dict] = []
    for kind, count in SHARES.items():
        for index in range(count):
            if kind == "usage":
                calls.append({"argv": _usage(rng), "exit": 2, "format": None, "keys": None})
                continue
            code = 0
            if kind == "light":
                argv, key_name = _light(rng)
            elif kind == "verify":
                argv, key_name, code = _verify(rng)
            elif kind == "audit_near_bound":
                argv, key_name, code = _audit_near_bound(rng)
            elif kind == "pushpull":
                argv, key_name = _pushpull(rng), "pushpull"
            else:
                argv, key_name = (_eval(rng, index) if kind == "eval" else _eval_verbose(rng)), "eval"
            fmt = rng.choice(FORMATS)
            calls.append({"argv": argv + ["--format", fmt], "exit": code, "format": fmt, "keys": KEYS[key_name]})
    rng.shuffle(calls)
    return calls


def check_output(call: dict, exit_code: int, stdout: str) -> str | None:
    """Return None if one call's result matches its expectation, else why not."""
    if exit_code != call["exit"]:
        return f"exit {exit_code}, expected {call['exit']}"
    keys, fmt = call["keys"], call["format"]
    if keys is None:
        return None if stdout == "" else "usage error wrote to stdout"
    if not stdout:
        return "no output"
    if fmt == "json":
        try:
            rows = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        if not isinstance(rows, list) or not rows or any(list(row) != keys for row in rows):
            return "json rows do not carry the expected keys"
    elif fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(stdout)))
        header = stdout.splitlines()[0].split(",")
        if header != keys or not rows or any(None in row or None in row.values() for row in rows):
            return "csv header or rows malformed"
        rows = [{key: _csv_json(value) for key, value in row.items()} for row in rows]
    else:
        lines = stdout.splitlines()
        if lines[0].split() != keys or len(lines) < 2:
            return "table header malformed"
        return None
    if call["argv"][0] == "theorem-a" and any(row["strict"] is not True for row in rows):
        return "theorem-a reported a non-strict comparison"
    if call["argv"][0] == "audit" and len(rows) != 10:
        return f"audit printed {len(rows)} steps, expected 10"
    return None


def _csv_json(value: str):
    # CSV renders booleans as true/false; map them as JSON does for the checks.
    return {"true": True, "false": False}.get(value, value)


def probes(out_dir: str) -> list[list[str]]:
    """The known crash and hang inputs, one subprocess each.  The --out
    target's parent directory does not exist, which is the fault probed."""
    return [
        ["eval", "--g", "4", "--d", "3", "--expr", "(" * 2000 + "x" + ")" * 2000],
        ["count", "--g", "20000", "--r", "1", "--d", "10001"],
        ["rho", "--g", "4", "--r", "1", "--d", "3", "--out", f"{out_dir}/nonexistent/x"],
        ["eval", "--verbose", "--g", "4", "--d", "3", "--expr", "(x+theta+1)^300"],
    ]
