"""Command-line experiment runner.

One process runs one command; everything an invocation produces is a
pure function of the effective configuration (config file plus flag
overrides), whose SHA-256 is stamped into every output next to the seed
and the package version, so any artifact can be regenerated from its
own header.

Exit codes: 0 success, 1 configuration/precondition error (an input file
that cannot be read included), 2 resource budget exceeded, 3 violation
of a mathematical invariant the library guarantees (a bug, not a user
error).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Any, Mapping

from . import __version__
from .coloring import coloring_from_text
from .decomposition import decompose
from .errors import (
    ChromaError,
    ConfigError,
    InternalInvariantError,
    PreconditionError,
    ResourceLimitError,
)
from .exact import Constraint, count_colorings, exact_marginal, toy_ratio
from .geometry import (
    OddSetCollection,
    enumerate_regular_parity_sets,
    separating_set,
    weak_approximation,
)
from .lattice import LatticeGraph, boundary_edge_count, closed_neighborhood
from .patterns import Pattern
from .sampler import ChainConfig, run_experiment
from .suites import random_regular_odd_set, run_suite
from .rng import make_rng

_SCHEMAS: dict[str, dict[str, type]] = {
    "exact-count": {
        "dims": list, "periodic": list, "q": int, "constraint": str,
        "pattern": str, "pins": dict, "method": str, "domain": list,
    },
    "marginal": {
        "dims": list, "periodic": list, "q": int, "constraint": str,
        "pattern": str, "pins": dict, "vertex": (int, str),
    },
    "toy-ratio": {
        "dims": list, "periodic": list, "q": int, "pattern0": str,
        "pattern": str, "droplet": (list, str),
    },
    "sample": {
        "dims": list, "periodic": list, "q": int, "pattern": str, "seed": int,
        "sweeps": int, "burn_in": int, "thin": int, "algorithm": str,
        "cluster_every": int, "chains": int, "margin": int,
    },
    "decompose": {"coloring": str},
    "verify-lemmas": {"suite": str, "trials": int, "seed": int},
    "approx": {
        "dims": list, "periodic": list, "seed": int, "sets": int,
        "exhaustive": bool,
    },
}


def _validate(command: str, cfg: Mapping[str, Any]) -> dict:
    schema = _SCHEMAS[command]
    out = {}
    for key, value in cfg.items():
        if key not in schema:
            raise ConfigError(f"unknown config field {key!r} for command {command}")
        want = schema[key]
        # a JSON true/false is a Python bool, which is an int: only bool fields take it
        if not isinstance(value, want) or isinstance(value, bool) and want is not bool:
            raise ConfigError(
                f"config field {key!r} should be {want}, got {type(value).__name__}"
            )
        _check_items(key, value)
        out[key] = value
    return out


def _check_items(key: str, value: Any) -> None:
    """The items of a list field and the values of a dict field: 0/1 or a
    bool in ``periodic``, an int that is not a bool everywhere else."""
    if not isinstance(value, (list, dict)):
        return
    for x in value.values() if isinstance(value, dict) else value:
        if key == "periodic":
            ok, want = isinstance(x, int) and x in (0, 1), "0/1 or a bool"
        else:
            ok, want = isinstance(x, int) and not isinstance(x, bool), "an int"
        if not ok:
            raise ConfigError(f"config field {key!r} holds {x!r}; each entry should be {want}")


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc.strerror}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror}") from exc


def _effective_config(command: str, args: argparse.Namespace) -> dict:
    cfg: dict[str, Any] = {}
    if args.config:
        try:
            loaded = json.loads(_read_text(args.config))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        loaded.pop("command", None)
        cfg.update(loaded)
    for key in _SCHEMAS[command]:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            cfg[key] = flag
    return _validate(command, cfg)


def _provenance(cfg: Mapping[str, Any]) -> dict:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return {
        "version": __version__,
        "config_sha256": hashlib.sha256(canon.encode()).hexdigest(),
        "seed": cfg.get("seed"),
    }


def _emit_json(payload: dict, cfg: Mapping[str, Any], out: str | None) -> None:
    doc = {"provenance": _provenance(cfg), **payload}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out:
        _write_text(out, text)
    sys.stdout.write(text)


def _emit_csv(header: list[str], rows: list[list], cfg: Mapping, out: str) -> None:
    prov = _provenance(cfg)
    lines = [
        f"# version={prov['version']} config_sha256={prov['config_sha256']} "
        f"seed={prov['seed']}",
        ",".join(header),
    ]
    lines += [",".join(map(repr, row)) for row in rows]   # Python ints and floats: repr is the text
    _write_text(out, "\n".join(lines) + "\n")


def _require(cfg: Mapping[str, Any], *fields: str) -> None:
    for key in fields:
        if key not in cfg:
            raise ConfigError(f"missing required field {key!r}")


def _graph_from(cfg: Mapping[str, Any]) -> LatticeGraph:
    _require(cfg, "dims")
    return LatticeGraph(cfg["dims"], cfg.get("periodic"))


def _constraint_from(cfg: Mapping[str, Any], q: int) -> Constraint:
    kind = cfg.get("constraint", "free")
    if kind == "free":
        return Constraint.free()
    if kind == "pattern":
        _require(cfg, "pattern")
        return Constraint.pattern_boundary(Pattern.parse(q, cfg["pattern"]))
    if kind == "pins":
        try:   # _validate has checked the colors; the keys are JSON strings
            pins = {int(k): v for k, v in cfg.get("pins", {}).items()}
        except ValueError as exc:
            raise ConfigError(f"pins must map vertex ids to colors: {exc}") from exc
        return Constraint.pinned(pins)
    raise ConfigError(f"unknown constraint kind {kind!r}")


def _center_vertex(G: LatticeGraph) -> int:
    return G.vid(tuple(x // 2 for x in G.dims))


def _vertex_from(G: LatticeGraph, v: Any) -> int:
    """'center' or an integer vertex id in [0, n)."""
    if v == "center":
        return _center_vertex(G)
    try:
        vid = int(v)
    except ValueError:
        vid = -1
    if not 0 <= vid < G.n:
        raise ConfigError(f"vertex must be 'center' or an id in [0, {G.n}), got {v!r}")
    return vid


# -- commands --------------------------------------------------------------------


def _cmd_exact_count(args) -> int:
    cfg = _effective_config("exact-count", args)
    G = _graph_from(cfg)
    _require(cfg, "q")
    q = cfg["q"]
    domain = (
        G.vertex_set(cfg["domain"]) if "domain" in cfg else G.full_set()
    )
    result = count_colorings(
        G, domain, q, _constraint_from(cfg, q), cfg.get("method", "auto")
    )
    instance = {"graph": G.key(), "q": q, "constraint": cfg.get("constraint", "free")}
    _emit_json(result.to_json(instance), cfg, args.out)
    return 0


def _cmd_marginal(args) -> int:
    cfg = _effective_config("marginal", args)
    G = _graph_from(cfg)
    _require(cfg, "q")
    q = cfg["q"]
    vid = _vertex_from(G, cfg.get("vertex", "center"))
    m = exact_marginal(G, G.full_set(), q, vid, _constraint_from(cfg, q))
    _emit_json({"marginal": m.to_json(), "graph": G.key(), "q": q}, cfg, args.out)
    return 0


def _cmd_toy_ratio(args) -> int:
    cfg = _effective_config("toy-ratio", args)
    G = _graph_from(cfg)
    _require(cfg, "q", "pattern0", "pattern")
    q = cfg["q"]
    p0 = Pattern.parse(q, cfg["pattern0"])
    p = Pattern.parse(q, cfg["pattern"])
    droplet = cfg.get("droplet", "center")
    if droplet == "center":
        U = G.vertex_set([_center_vertex(G)])
    elif droplet == "center-plus":
        U = closed_neighborhood(G, G.vertex_set([_center_vertex(G)]))
    elif isinstance(droplet, str):
        raise ConfigError(f"droplet must be 'center', 'center-plus' or a list of ids, "
                          f"got {droplet!r}")
    else:
        U = G.vertex_set(droplet)
    result = toy_ratio(G, G.full_set(), U, p0, p)
    _emit_json({"toy_ratio": result.to_json(), "graph": G.key()}, cfg, args.out)
    return 0


def _cmd_sample(args) -> int:
    cfg = _effective_config("sample", args)
    _require(cfg, "dims", "q", "pattern", "seed", "sweeps")
    # every sample field is a ChainConfig field, and ChainConfig holds the defaults
    chain = ChainConfig(**{
        key: tuple(value) if isinstance(value, list) else value
        for key, value in cfg.items()
    })
    stats = run_experiment(chain)
    out = args.out or "stats.csv"
    header = ["vertex_id", "violation_rate"] + [f"c{i}" for i in range(1, chain.q + 1)]
    _emit_csv(header, stats.csv_rows(), cfg, out)
    summary = {
        "samples": stats.samples,
        "split_half_max_diff": stats.split_half_max_diff,
        "parity_occupation": {k: list(v) for k, v in stats.parity_occupation.items()},
        "csv": out,
    }
    _emit_json(summary, cfg, None)
    return 0


def _cmd_decompose(args) -> int:
    cfg = _effective_config("decompose", args)
    _require(cfg, "coloring")
    f, G = coloring_from_text(_read_text(cfg["coloring"]))
    Z = decompose(G, f)
    payload = {"graph": G.key(), "q": f.q, "decomposition": Z.to_json()}
    _emit_json(payload, cfg, args.out or "regions.json")
    return 0


def _cmd_verify_lemmas(args) -> int:
    cfg = _effective_config("verify-lemmas", args)
    suite = cfg.get("suite", "all")
    trials = cfg.get("trials", 100)
    seed = cfg.get("seed", 0)
    results = run_suite(suite, trials, seed)
    all_ok = True
    for res in results:
        status = "pass" if res.ok else "FAIL"
        sys.stdout.write(f"{res.name}: {status} ({res.trials} trials)\n")
        for msg in res.failures:
            sys.stdout.write(f"  {msg}\n")
        all_ok = all_ok and res.ok
    if not all_ok:
        raise InternalInvariantError("a lemma suite failed")
    return 0


def _cmd_approx(args) -> int:
    cfg = _effective_config("approx", args)
    G = _graph_from(cfg)
    seed = cfg.get("seed", 0)
    n_sets = cfg.get("sets", 2)
    if n_sets < 1:
        raise ConfigError(f"sets must be >= 1, got {n_sets}")
    payload: dict[str, Any] = {"graph": G.key()}
    if cfg.get("exhaustive"):
        # tiny ambients only: sweep the whole family of regular odd sets
        # and coarse-grain each one through its own separating set
        family = enumerate_regular_parity_sets(G, "odd")
        verified = 0
        for U in family:
            coll = OddSetCollection(G, [U], "odd")
            if not boundary_edge_count(G, coll.sets):
                verified += 1
                continue
            sep = separating_set(coll)
            weak_approximation(G, sep.separator, coll)
            verified += 1
        payload["exhaustive"] = {
            "regular_odd_sets": len(family),
            "coarse_grained": verified,
        }
        _emit_json(payload, cfg, args.out)
        return 0
    rng = make_rng(seed)
    sets = [random_regular_odd_set(G, rng) for _ in range(n_sets)]
    collection = OddSetCollection(G, sets, "odd")
    sep = separating_set(collection)
    weak = weak_approximation(G, sep.separator, collection)
    payload["separating"] = {
        "size": sep.size,
        "size_bound": sep.size_bound,
        "separates": sep.separates,
        "vertices": sep.vertices.to_text(),
    }
    payload["weak_approximation"] = {
        "fringe_size": len(weak.fringe),
        "fringe_bound_ok": weak.fringe_bound_ok,
        "known_sizes": [len(k) for k in weak.known],
    }
    _emit_json(payload, cfg, args.out)
    return 0


_COMMANDS = {
    "exact-count": _cmd_exact_count,
    "marginal": _cmd_marginal,
    "toy-ratio": _cmd_toy_ratio,
    "sample": _cmd_sample,
    "decompose": _cmd_decompose,
    "verify-lemmas": _cmd_verify_lemmas,
    "approx": _cmd_approx,
}


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a configuration error (exit 1)."""

    def error(self, message: str):
        raise ConfigError(message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _int_list_or_name(text: str) -> list[int] | str:
    """A name (a letter first) as given; anything else parsed like ``--dims``."""
    return text if text[:1].isalpha() else _int_list(text)


# a flag's text as a config value, by schema type; a str field and the
# mixed int/str field keep the text
_FLAG_TYPES = {int: int, list: _int_list, dict: json.loads, (list, str): _int_list_or_name}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chroma",
        description="exact counting, sampling and contour geometry for "
        "pattern-ordered proper colorings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, schema in _SCHEMAS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output file path")
        for key, want in schema.items():
            flag = "--" + key.replace("_", "-")
            if want is bool:
                p.add_argument(flag, dest=key, action="store_true", default=None)
            else:
                p.add_argument(flag, dest=key, type=_FLAG_TYPES.get(want))
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, PreconditionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource error: {exc}\n")
        return 2
    except InternalInvariantError as exc:
        sys.stderr.write(f"internal invariant violated: {exc}\n")
        return 3
    except ChromaError as exc:  # pragma: no cover
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
