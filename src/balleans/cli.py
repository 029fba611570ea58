"""Command-line surface: distances, balls, components, saturation, profiles,
exp-ball enumeration, the mu set metric, and the verification suites.

Each subcommand maps its parsed arguments to a JSON payload; `run` alone
writes it to stdout and picks the exit code. Human diagnostics go to stderr.
Exit code 0 on success; 2 on a malformed, missing or out-of-range argument
(including the log base); 1 on a domain error or a verification suite with
violations. Exact integers are authoritative in output; logarithms are
display-only, with the base taken from --base or the BALLEAN_LOG_BASE
environment variable (default: natural log).
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import types
from typing import Optional, Sequence, Union

from .ballean import FiniteSubset, exp_ball_enumerate_centered_identity, mu_report
from .groups import (
    FAGSubgroup,
    FiniteAbelianGroup,
    GroupDescriptor,
    PruferSubgroup,
    _is_prime,
    asdim_classify,
    component_census,
    fag_log_distance,
    iso_points_classify,
    prufer_log_distance,
)
from .lattices import (
    ExtNat,
    Lattice,
    lattice_from_generators,
    log_subgroup_distance,
    saturation,
)
from .suites import SUITES, run_all, run_suite


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# group and subgroup grammar


GroupCtx = Union[int, FiniteAbelianGroup, tuple]  # int = ambient of Z^n


def parse_group(expr: str) -> GroupCtx:
    """Z | Z^n | Z(m1,m2,...) | Z(m1)xZ(m2)... | prufer@p"""
    s = expr.strip()
    if s == "Z":
        return 1
    if s.startswith("Z^"):
        n = _parse_int(s[2:], "rank")
        if n < 1:
            raise UsageError("rank must be >= 1")
        return n
    if s.startswith("prufer@"):
        p = _parse_int(s[len("prufer@"):], "prime")
        if not _is_prime(p):
            raise UsageError(f"prufer@p needs a prime p, got {p}")
        return ("prufer", p)
    if s.startswith("Z("):
        orders = []
        for piece in s.split("x"):
            piece = piece.strip()
            if not (piece.startswith("Z(") and piece.endswith(")")):
                raise UsageError(f"cannot parse group {expr!r}")
            inner = piece[2:-1]
            orders.extend(_parse_int(tok, "order") for tok in inner.split(","))
        # elements are read in the coordinates the orders give, so only an
        # invariant-factor spelling is taken as it stands
        try:
            return FiniteAbelianGroup(tuple(orders))
        except ValueError:
            pass
        try:
            chain = FiniteAbelianGroup.from_orders(orders).invariant_factors
        except ValueError as e:  # an order below 1
            raise UsageError(str(e)) from None
        spelling = f"Z({','.join(map(str, chain))})" if chain else "the trivial group"
        raise UsageError(f"group orders must form a divisibility chain m1 | m2 | ... "
                         f"of integers >= 2: {expr!r} is {spelling}")
    raise UsageError(f"cannot parse group {expr!r}")


def parse_subgroup(expr: str, ctx: GroupCtx):
    """kZ | span[(a,b),...] | gen{e1,e2,...} | H_n@p | whole@p"""
    s = expr.strip()
    if isinstance(ctx, tuple) and ctx[0] == "prufer":
        p = ctx[1]
        name, at, p_str = s.partition("@")
        if name == "whole":
            level = None
        elif name.startswith("H_"):
            level = _parse_int(name[2:], "level")
            if level < 0:
                raise UsageError("level must be >= 0")
        else:
            raise UsageError(f"cannot parse subgroup {expr!r} in a divisible chain")
        if at and _parse_int(p_str, "prime") != p:
            raise UsageError("subgroup prime differs from group context")
        return PruferSubgroup(p, level)
    if isinstance(ctx, int):
        if s.endswith("Z"):
            k = _parse_int(s[:-1] or "1", "multiplier")
            if ctx != 1:
                raise UsageError("kZ only makes sense with ambient rank 1")
            if k < 0:
                raise UsageError("multiplier must be >= 0")
            return lattice_from_generators(1, [[k]] if k else [])
        if s.startswith("span[") and s.endswith("]"):
            rows = [_parse_vector(tok, ctx)
                    for tok in _split_top(s[len("span["):-1])]
            return lattice_from_generators(ctx, rows)
        raise UsageError(f"cannot parse subgroup {expr!r} in Z^{ctx}")
    if isinstance(ctx, FiniteAbelianGroup):
        if s.startswith("gen{") and s.endswith("}"):
            gens = _parse_elements(s[len("gen{"):-1], ctx)
            return FAGSubgroup.from_elements(ctx, gens)
        raise UsageError(f"cannot parse subgroup {expr!r} in a finite group")
    raise UsageError("unsupported group context")


def format_subgroup(sub, ctx: GroupCtx) -> str:
    """Canonical printing; output re-parses to the identical value."""
    if isinstance(sub, PruferSubgroup):
        return "whole" if sub.is_whole else f"H_{sub.level}@{sub.prime}"
    if isinstance(sub, Lattice):
        if sub.ambient == 1:
            return f"{sub.basis[0][0]}Z" if sub.rank else "0Z"
        rows = ",".join("(" + ",".join(map(str, r)) + ")" for r in sub.basis)
        return f"span[{rows}]"
    if isinstance(sub, FAGSubgroup):
        elems = sorted(sub.elements())
        body = ",".join("(" + ",".join(map(str, e)) + ")" if len(e) > 1
                        else str(e[0]) for e in elems)
        return f"gen{{{body}}}"
    raise ValueError("unknown subgroup kind")


def _split_top(s: str) -> list[str]:
    """Split on commas outside parentheses; empty input gives no pieces."""
    out, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise UsageError("unbalanced parentheses")
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise UsageError("unbalanced parentheses")
    tail = "".join(cur).strip()
    if tail:
        out.append(tail)
    return [p.strip() for p in out if p.strip()]


def _parse_int(tok: str, what: str) -> int:
    try:
        return int(tok.strip())
    except ValueError:
        raise UsageError(f"cannot parse {what}: {tok!r}") from None


def _parse_vector(tok: str, ambient: int) -> list[int]:
    t = tok.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise UsageError(f"expected a vector like (a,b): {tok!r}")
    coords = [_parse_int(c, "coordinate") for c in t[1:-1].split(",")]
    if len(coords) != ambient:
        raise UsageError(f"{t} needs {ambient} coordinates, got {len(coords)}")
    return coords


def _parse_elements(body: str, g: FiniteAbelianGroup) -> list[tuple[int, ...]]:
    """Comma-separated k-tuples (a,b,...) of g, or bare ints when g is cyclic:
    the body of gen{...}, of a {...} set, or of --radius."""
    return [tuple(_parse_vector(t if t.startswith("(") else f"({t})", g.k))
            for t in _split_top(body)]


# ---------------------------------------------------------------------------
# argument checks and payload helpers


def _log_base(args) -> float:
    base = args.base
    if base is None:
        env = os.environ.get("BALLEAN_LOG_BASE")
        try:
            base = float(env) if env else math.e
        except ValueError:
            raise UsageError(f"cannot parse BALLEAN_LOG_BASE: {env!r}") from None
    if not 1 < base < math.inf:
        raise UsageError(f"log base must be a finite number > 1, got {base}")
    return base


def _distance_json(mu: ExtNat, base: float) -> dict:
    # the exact field is authoritative; "inf" keeps the output valid JSON
    log = mu.log(base) if mu.is_finite else "inf"
    return {"mu": mu.to_json(), "log": log, "base": base}


def _require(args, **lows: int) -> None:
    """Each named option is given and at least its low bound."""
    if any(getattr(args, name) is None for name in lows):
        flags = ", ".join(f"--{name}" for name in lows)
        raise UsageError(f"{args.family} needs {flags}")
    for name, low in lows.items():
        if getattr(args, name) < low:
            raise UsageError(f"--{name} must be >= {low}, got {getattr(args, name)}")


def _require_prime(p: Optional[int]) -> None:
    if p is None or not _is_prime(p):
        raise UsageError(f"prufer needs a prime --p, got {p}")


def _finite_group(args) -> FiniteAbelianGroup:
    g = parse_group(args.group)
    if not isinstance(g, FiniteAbelianGroup):
        raise UsageError(f"{args.command} needs a finite group, got {args.group!r}")
    return g


# ---------------------------------------------------------------------------
# subcommands: each maps the parsed arguments to its JSON payload


def _cmd_dist(args) -> dict:
    ctx = parse_group(args.group)
    if len(args.sub) != 2:
        raise UsageError("dist needs exactly two --sub arguments")
    base = _log_base(args)
    a, b = (parse_subgroup(s, ctx) for s in args.sub)
    if isinstance(ctx, tuple):
        mu = prufer_log_distance(a, b)
    elif isinstance(ctx, int):
        mu = log_subgroup_distance(a, b)
    else:
        mu = fag_log_distance(a, b)
    return _distance_json(mu, base)


def _cmd_ball(args) -> dict:
    from .witnesses import lz_exp_ball, lz_log_ball, prufer_ball

    if args.family == "LZ-exp":
        _require(args, n=1, m=0)
        return {"family": "LZ-exp", "n": args.n, "m": args.m,
                "members": [f"{k}Z" for k in sorted(lz_exp_ball(args.n, args.m))]}
    if args.family == "LZ-log":
        _require(args, n=1, K=1)
        return {"family": "LZ-log", "n": args.n, "K": args.K,
                "members": [f"{m}Z" for m in sorted(lz_log_ball(args.n, args.K))]}
    _require(args, p=2, n=0, K=1)
    _require_prime(args.p)
    levels = sorted(prufer_ball(args.p, args.n, args.K))
    return {"family": "prufer", "p": args.p, "level": args.n, "K": args.K,
            "members": [f"H_{j}@{args.p}" for j in levels]}


def _cmd_component(args) -> dict:
    if args.family == "Z^n":
        _require(args, n=1)
        census = component_census("Z^n", n=args.n)
    elif args.family == "prufer":
        _require_prime(args.p)
        census = component_census("prufer", prime=args.p)
    else:
        census = component_census("finite_abelian")
    return census.to_json()


def _cmd_saturate(args) -> dict:
    ctx = parse_group(args.group)
    if not isinstance(ctx, int):
        raise UsageError("saturation applies to subgroups of Z^n")
    sub = parse_subgroup(args.sub, ctx)
    return {"input": format_subgroup(sub, ctx),
            "saturation": format_subgroup(saturation(sub), ctx)}


def _cmd_profile(args) -> dict:
    with open(args.descriptor) as fh:
        try:  # json and the cardinal tokens recurse once per nesting level
            d = GroupDescriptor.from_json(json.load(fh))
        except RecursionError:
            raise ValueError("descriptor nested too deeply") from None
    iso = iso_points_classify(d)
    return {"asdim": asdim_classify(d).to_json(),
            "iso_points": {"size": str(iso.size), "witness": iso.witness}}


def _cmd_exp_ball(args) -> dict:
    g = _finite_group(args)
    balls = exp_ball_enumerate_centered_identity(g, _parse_elements(args.radius, g))
    members = sorted(sorted(z) for z in balls)
    return {"group": args.group, "radius": args.radius,
            "members": [[list(e) for e in z] for z in members]}


def _cmd_mu(args) -> dict:
    g = _finite_group(args)
    if len(args.set) != 2:
        raise UsageError("mu needs exactly two --set arguments")
    base = _log_base(args)
    sets = []
    for expr in args.set:
        s = expr.strip()
        if not (s.startswith("{") and s.endswith("}")):
            raise UsageError(f"expected a set like {{0,3}}: {expr!r}")
        elements = _parse_elements(s[1:-1], g)
        if not elements:
            raise UsageError(f"mu needs nonempty sets: {expr!r}")
        sets.append(FiniteSubset.of(g, elements))
    report = mu_report(*sets)
    out = _distance_json(report.mu, base)
    out["single_set"] = report.single_set.to_json()
    return out


def _cmd_verify(args) -> list:
    options = {} if args.max_coord is None else {"max_coord": args.max_coord}
    if options and args.max_coord < 1:
        raise UsageError(f"--max-coord must be >= 1, got {args.max_coord}")
    if args.suite == "all":
        if options:
            raise UsageError("--max-coord needs a single suite that takes it")
        reports = run_all(seed=args.seed)
    else:
        if options and "max_coord" not in SUITES[args.suite][1]:
            raise UsageError(f"suite {args.suite} takes no --max-coord")
        try:
            reports = [run_suite(args.suite, seed=args.seed, **options)]
        except ValueError as e:
            if options:  # the grid --max-coord spans passes GRID_LIMIT
                raise UsageError(str(e)) from None
            raise
    return [r.to_json() for r in reports]


# ---------------------------------------------------------------------------
# argument parsing

# name -> (help, handler, the (flag, keyword arguments) of each option)
_COMMANDS = {
    "dist": ("distance between two subgroups", _cmd_dist, [
        ("--group", dict(required=True)),
        ("--sub", dict(action="append", default=[], required=True)),
        ("--base", dict(type=float))]),
    "ball": ("enumerate a metric or exp ball", _cmd_ball, [
        ("--family", dict(required=True, choices=["LZ-exp", "LZ-log", "prufer"])),
        ("--n", dict(type=int)), ("--m", dict(type=int)),
        ("--K", dict(type=int)), ("--p", dict(type=int))]),
    "component": ("connected-component census", _cmd_component, [
        ("--family", dict(required=True, choices=["Z^n", "prufer", "finite"])),
        ("--n", dict(type=int)), ("--p", dict(type=int))]),
    "saturate": ("pure closure of a sublattice", _cmd_saturate, [
        ("--group", dict(required=True)), ("--sub", dict(required=True))]),
    "profile": ("classify a group descriptor file", _cmd_profile, [
        ("--descriptor", dict(required=True))]),
    "exp-ball": ("enumerate the identity-centred exp ball", _cmd_exp_ball, [
        ("--group", dict(required=True)), ("--radius", dict(required=True))]),
    "mu": ("exact covering distance between two sets", _cmd_mu, [
        ("--group", dict(required=True)),
        ("--set", dict(action="append", default=[], required=True)),
        ("--base", dict(type=float))]),
    "verify": ("run a verification suite", _cmd_verify, [
        ("--suite", dict(default="all", choices=sorted(SUITES) + ["all"])),
        ("--seed", dict(type=int, default=0)), ("--max-coord", dict(type=int))]),
}


def _fast_args(name: str, rest: Sequence[str]) -> Optional[types.SimpleNamespace]:
    """The namespace argparse would give for command `name` and its arguments
    `rest`, built straight from its `_COMMANDS` entry, when rest is only
    `--flag value` pairs of the command's own option strings, no value starts
    with "-", each converts by its `type` and lies in its `choices`, and every
    required flag is given; None for anything else, which argparse reads."""
    if len(rest) % 2:
        return None
    options = dict(_COMMANDS[name][2])
    given: dict[str, list] = {}
    for flag, value in zip(rest[::2], rest[1::2]):
        kwargs = options.get(flag)
        if kwargs is None or value[:1] == "-":
            return None
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        given.setdefault(flag, []).append(value)
    if any(kw.get("required") and flag not in given for flag, kw in options.items()):
        return None
    fields = {}
    for flag, kwargs in options.items():  # argparse's dest, default and action
        default, values = kwargs.get("default"), given.get(flag)
        if values and kwargs.get("action") == "append":
            values = [[*(default or ()), *values]]
        fields[flag[2:].replace("-", "_")] = values[-1] if values else default
    return types.SimpleNamespace(**fields, command=name)


_quote = json.encoder.encode_basestring_ascii  # json's own, under ensure_ascii


def _json_text(o, newline: str = "\n") -> str:
    """json.dumps(o, indent=2, sort_keys=True, allow_nan=False), byte for byte,
    for a payload whose dicts have str keys; `newline` starts each line inside
    o. Below Python 3.13, indent makes json build a pure-Python encoder on
    every call, which costs about twice this walk over a CLI payload."""
    t = type(o)
    if t is str:
        return _quote(o)
    if t is int:
        return repr(o)
    inner = newline + "  "
    if t is list or t is tuple:
        items = [_json_text(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if o else "[]"
    if t is dict:
        items = [_quote(k) + ": " + _json_text(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if o else "{}"
    if t is float and math.isfinite(o):
        return repr(o)
    if o is None or t is bool:
        return "null" if o is None else "true" if o else "false"
    # a subclass of a JSON type is written as json writes it, and a NaN or
    # an infinity raises json's own ValueError
    return json.dumps(o, indent=2, sort_keys=True, allow_nan=False).replace("\n", newline)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The top-level parser with every command, built once per process:
    parsing keeps no state in a parser, and argparse reads COLUMNS afresh
    for every help and usage text it formats."""
    import argparse  # with gettext, a few ms of a one-shot query that needs neither

    parser = argparse.ArgumentParser(
        prog="balleans", description="Exact coarse geometry on subgroup lattices.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    # a well-formed query of a known command needs no parser; any other argv
    # goes through argparse, which writes every help and error text
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _fast_args(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as e:
            return 2 if e.code else 0
    try:
        payload = _COMMANDS[args.command][1](args)
        # serialized in full before writing, so a refused value leaves no
        # partial document on stdout
        text = _json_text(payload)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(text + "\n")
    if args.command == "verify" and not all(r["ok"] for r in payload):
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
