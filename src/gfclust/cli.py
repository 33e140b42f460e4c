"""Command-line entry point: run / ablate / spectrum / synth.

Configuration comes from a single JSON file (``--config``), and command-line
flags override its values. Its top-level keys are the TrainConfig fields
(``filter`` and ``encoder`` are objects of FilterConfig and EncoderConfig
fields), one data source, either ``manifest`` (a path relative to the config
file's directory) or ``synthetic`` (an object of SyntheticSpec fields), and
``out``, ``name`` and ``variant``. ``run`` and ``spectrum`` read the training
keys, the data source and ``out``; ``ablate`` reads ``variant`` too, which
the other two refuse; ``synth`` reads ``synthetic``, ``out`` and ``name``.
A key that no command reads, at any level, and a value out of its range
fail with exit 1 before any data is read (``synth`` checks only the keys it
reads).
Exit codes: 0 success, 1 configuration or data errors, 2 numeric divergence
(``run`` and ``ablate`` still write the partial report, with ``"final": null``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .autograd import no_grad
from .datasets import (
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    save_embedding,
    save_report,
)
from .encoders import EncoderConfig, encode_t
from .errors import ConfigError, DivergenceError, from_mapping
from .filters import FilterConfig
from .graphs import MultiViewGraph
from .spectral import compare_spectra
from .training import TrainConfig, pretrain, train

# top-level config keys besides the TrainConfig fields: the data source and outputs
_DATA_KEYS = frozenset({"manifest", "synthetic", "out", "name", "variant"})
# flags that override the TrainConfig field of their name
_FLAG_KEYS = ("epochs", "rho", "gamma_rec", "gamma_kl", "seed")

VARIANTS = ("no_rec", "no_kl", "raw_adjacency", "low_pass_only", "raw_adjacency_low_pass")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route everything through
    # ConfigError so usage problems consistently exit 1
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gfclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--rho", type=float, default=None)
        p.add_argument("--gamma-rec", type=float, default=None, dest="gamma_rec")
        p.add_argument("--gamma-kl", type=float, default=None, dest="gamma_kl")

    common(sub.add_parser("run", help="train and report metrics"))
    ablate = sub.add_parser("ablate", help="train one ablation variant")
    common(ablate)
    ablate.add_argument("--variant", default=None, help="|".join(VARIANTS))
    common(sub.add_parser("spectrum", help="pretrain, then compare kernel spectra"))
    synth = sub.add_parser("synth", help="materialize a synthetic dataset")
    common(synth)
    return parser


def _load_config(args) -> dict:
    if args.config is None:
        return {}
    try:
        payload = json.loads(Path(args.config).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a JSON object")
    return payload


def _train_config(payload: dict, args) -> TrainConfig:
    if "variant" in payload and args.command != "ablate":
        raise ConfigError(f"config key 'variant' is read by ablate only, not by {args.command}")
    values = {key: value for key, value in payload.items() if key not in _DATA_KEYS}
    values.update((key, getattr(args, key)) for key in _FLAG_KEYS if getattr(args, key) is not None)
    for name, cls in (("filter", FilterConfig), ("encoder", EncoderConfig)):
        if name in values:
            values[name] = from_mapping(cls, values[name], f"config field {name!r}")
    cfg = from_mapping(TrainConfig, values, "config")
    if args.order is not None:
        cfg = replace(cfg, filter=replace(cfg.filter, order=args.order))
    return cfg


def _load_graph(payload: dict, args) -> MultiViewGraph:
    has_manifest = "manifest" in payload
    has_synthetic = "synthetic" in payload
    if has_manifest == has_synthetic:
        raise ConfigError("config needs exactly one data source: 'manifest' or 'synthetic'")
    if has_manifest:
        base = Path(args.config).parent if args.config else Path.cwd()
        return load_dataset(base / _string(payload, "manifest"))
    return generate_synthetic(_synthetic_spec(payload, args))


def _synthetic_spec(payload: dict, args) -> SyntheticSpec:
    if "synthetic" not in payload:
        raise ConfigError("config has no 'synthetic' section")
    spec = from_mapping(SyntheticSpec, payload["synthetic"], "config field 'synthetic'")
    if args.seed is not None and args.command == "synth":
        spec = replace(spec, seed=args.seed)
    return spec


def _string(payload: dict, key: str, default=None) -> str:
    value = payload.get(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"config key {key!r} must be a string, got {value!r}")
    return value


def _out_dir(payload: dict, args) -> Path:
    return Path(args.out) if args.out is not None else Path(_string(payload, "out", "gfclust-out"))


def _metrics_line(final: dict) -> str:
    def fmt(key):
        value = final.get(key)
        return "nan" if value is None else f"{value:.6f}"

    return f"NMI={fmt('nmi')} ARI={fmt('ari')} ACC={fmt('acc')} F1={fmt('f1')}"


def _train_and_save(payload: dict, args, cfg: TrainConfig, suffix: str = "") -> int:
    """Train, then write ``report<suffix>.json`` and ``embedding<suffix>.csv``.

    On divergence the partial report is written before the error propagates.
    """
    out = _out_dir(payload, args)
    g = _load_graph(payload, args)
    try:
        report = train(g, cfg)
    except DivergenceError as exc:
        out.mkdir(parents=True, exist_ok=True)
        save_report(exc.report, out / f"report{suffix}.json")
        raise
    out.mkdir(parents=True, exist_ok=True)
    save_report(report, out / f"report{suffix}.json")
    save_embedding(report.state.consensus, out / f"embedding{suffix}.csv")
    print(_metrics_line(report.final))
    return 0


def cmd_run(payload: dict, args) -> int:
    return _train_and_save(payload, args, _train_config(payload, args))


def apply_variant(cfg: TrainConfig, variant: str) -> TrainConfig:
    """Translate an ablation name into the matching config change."""
    if variant == "no_rec":
        return replace(cfg, gamma_rec=0.0)
    if variant == "no_kl":
        return replace(cfg, gamma_kl=0.0)
    if variant == "raw_adjacency":
        return replace(cfg, filter=replace(cfg.filter, matrix_source="raw_adjacency"))
    if variant == "low_pass_only":
        return replace(cfg, filter=replace(cfg.filter, family="low_pass"))
    if variant == "raw_adjacency_low_pass":
        return replace(
            cfg,
            filter=replace(cfg.filter, matrix_source="raw_adjacency", family="low_pass"),
        )
    raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def cmd_ablate(payload: dict, args) -> int:
    variant = args.variant if args.variant is not None else payload.get("variant")
    if variant is None:
        raise ConfigError("ablate needs --variant")
    cfg = apply_variant(_train_config(payload, args), variant)
    return _train_and_save(payload, args, cfg, suffix=f"_{variant}")


def cmd_spectrum(payload: dict, args) -> int:
    cfg = _train_config(payload, args)
    out = _out_dir(payload, args)
    g = _load_graph(payload, args)
    models, _ = pretrain(g, cfg)
    out.mkdir(parents=True, exist_ok=True)
    for view, (params_x, params_a) in enumerate(models):
        with no_grad():
            z_x = encode_t(params_x, g.features).data
            z_a = encode_t(params_a, g.adjacencies[view]).data
        rep_a, rep_s = compare_spectra(g, view, z_x, z_a, out_dir=out)
        print(
            f"view {view}: largest gap adjacency_rw={rep_a.summary['largest_gap']:.6f} "
            f"joint_aggregation_rw={rep_s.summary['largest_gap']:.6f}"
        )
    return 0


def cmd_synth(payload: dict, args) -> int:
    spec = _synthetic_spec(payload, args)
    out = _out_dir(payload, args)
    g = generate_synthetic(spec)
    manifest = save_dataset(g, out, name=_string(payload, "name", g.name))
    print(f"wrote {manifest}")
    return 0


_COMMANDS = {"run": cmd_run, "ablate": cmd_ablate, "spectrum": cmd_spectrum, "synth": cmd_synth}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        payload = _load_config(args)
        return _COMMANDS[args.command](payload, args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
