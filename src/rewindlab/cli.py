"""Batch command-line front end.

Subcommands expose every computation route and emit plain rows or
CSV/JSON sweeps; identical command lines with identical seeds produce
byte-identical output.  Exit codes: 0 ok, 1 usage error, 2 computation
error, 3 tolerance failure in ``compare``.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction

import click

from rewindlab.circuits import CircuitShape, Family, RecycleTarget, protocol_layout
from rewindlab.errors import InvalidParameterError, RewindlabError, UnsupportedRegimeError
from rewindlab.result import FidelityResult

USAGE_EXIT = 1
COMPUTE_EXIT = 2
TOLERANCE_EXIT = 3


class _Group(click.Group):
    """Group that maps usage errors to exit code 1 (click defaults to 2)."""

    def main(self, *args, standalone_mode=True, **kwargs):
        try:
            return super().main(*args, standalone_mode=False, **kwargs)
        except click.UsageError as exc:
            exc.show()
            sys.exit(USAGE_EXIT)
        except click.ClickException as exc:
            exc.show()
            sys.exit(exc.exit_code)
        except click.exceptions.Abort:
            sys.exit(USAGE_EXIT)


def _decimal(value) -> str:
    return f"{float(value):.15g}"


def _exact(value) -> str:
    return str(value) if isinstance(value, Fraction) else ""


def _read_channel(path: str):
    """Parse a Kraus channel JSON file; a malformed file is a usage error."""
    from rewindlab.noise import KrausChannel

    with open(path) as fh:
        text = fh.read()
    try:
        return KrausChannel.from_json(text)
    except (ValueError, KeyError, TypeError, InvalidParameterError) as exc:
        raise click.UsageError(f"channel file {path}: malformed Kraus operators ({exc})")


def _channel_stats(channel):
    """Channel statistics; a channel they reject (e.g. not trace preserving) exits 2."""
    from rewindlab.noise import channel_stats

    try:
        return channel_stats(channel)
    except RewindlabError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(COMPUTE_EXIT)


def _load_channel(path: str | None, alpha: float | None, beta: float | None):
    """Returns (channel, stats) from a JSON file or bare (alpha, beta)."""
    from rewindlab.noise import ChannelStats

    if path is not None:
        channel = _read_channel(path)
        return channel, _channel_stats(channel)
    if alpha is not None or beta is not None:
        stats = ChannelStats(
            alpha=alpha if alpha is not None else 1.0,
            beta=beta if beta is not None else 1.0,
            beta_u=1.0,
            beta_d=1.0,
        )
        return None, stats
    return None, None


def _closed_value(family: Family, q: int, n: int, m: int, target: RecycleTarget, stats):
    from rewindlab import closedform

    if stats is not None:
        if family is not Family.CONVOLUTIONAL:
            raise RewindlabError("noisy closed forms exist for the convolutional family only")
        return closedform.noisy_conv_fidelity(
            q, n, stats.alpha, stats.beta, target, stats.recycled_boundary
        )
    if family is Family.CONVOLUTIONAL:
        return closedform.conv_fidelity(q, n, target)
    if family is Family.HYBRID:
        if target.kind != "single" or target.indices[0] != 1:
            raise RewindlabError("hybrid closed forms cover recycling the first qudit")
        return closedform.hybrid_fidelity(q, n, m)
    if target.kind != "single" or target.indices[0] != 1:
        raise RewindlabError("local closed forms cover recycling the first qudit")
    return closedform.local_fidelity(q, n, m)


def _check_channel_route(method: str, channel) -> None:
    """Refuse an analytic route that would ignore part of the channel.

    closed, transfer and sum read only (alpha, beta, recycled boundary);
    an arity-2 channel also needs beta_u/beta_d, which none of them models.
    """
    if channel is not None and channel.arity == 2 and method in ("closed", "transfer", "sum"):
        raise UnsupportedRegimeError("arity-2 channels are not modelled by this route; use twirl or mc")


def _evaluate(
    method: str,
    family: Family,
    q: int,
    n: int,
    m: int,
    target: RecycleTarget,
    channel,
    stats,
    samples: int,
    seed: int,
) -> FidelityResult:
    from rewindlab import oracle, statmech

    if channel is not None:
        oracle.check_channel_dim(channel, q)
    _check_channel_route(method, channel)
    if method == "closed":
        return _closed_value(family, q, n, m, target, stats)
    if method in ("wall", "sum"):
        shape = CircuitShape(family, n, m, q)
        lattice = statmech.lattice_from_circuit(protocol_layout(shape, target), target)
        if method == "wall":
            if stats is not None:
                raise RewindlabError("single-wall sums are noiseless only")
            return statmech.single_wall_fidelity(lattice)
        rule = None
        if stats is not None:
            rule = statmech.TrivalentRule(
                q, alpha=stats.alpha, beta=stats.beta, recycled_boundary=stats.recycled_boundary
            )
        return statmech.partition_sum_exhaustive(lattice, rule)
    if method == "transfer":
        if family is not Family.CONVOLUTIONAL:
            raise RewindlabError("transfer matrices cover the convolutional family only")
        a = stats.alpha if stats is not None else 1
        b = stats.beta if stats is not None else 1
        rb = stats.recycled_boundary if stats is not None else (1, 1)
        return statmech.transfer_fidelity(q, n, target, a, b, rb)
    shape = CircuitShape(family, n, m, q)
    layout = protocol_layout(shape, target)
    if method == "twirl":
        return oracle.exact_twirl_fidelity(layout, target, channel=channel)
    if method == "mc":
        return oracle.mc_average_fidelity(layout, target, channel=channel, samples=samples, rng=seed)
    raise RewindlabError(f"unknown method {method!r}")


def _parse_common(family: str, target: str, n: int, m: int):
    fam = Family(family)
    tgt = RecycleTarget.parse(target)
    tgt.validate(n)
    return fam, tgt


@click.group(cls=_Group)
def main():
    """Averaged fidelity of the qudit rewinding protocol, four ways."""


@main.command()
@click.option("--family", type=click.Choice([f.value for f in Family]), default="conv")
@click.option("--q", "q", type=int, default=2, show_default=True)
@click.option("--n", "n", type=int, default=None)
@click.option("--m", "m", type=int, default=1, show_default=True)
@click.option("--target", default="1", show_default=True, help="i | prefix:k | pair:i,j")
@click.option("--spec", "spec_path", type=click.Path(exists=True), default=None, help="JSON circuit description {family, n, m, q, target}")
@click.option("--method", default="closed", show_default=True, help="comma list of closed,wall,sum,twirl,mc,transfer")
@click.option("--alpha", type=float, default=None, help="channel statistic alpha (with --beta)")
@click.option("--beta", type=float, default=None)
@click.option("--channel", "channel_path", type=click.Path(exists=True), default=None, help="Kraus channel JSON file")
@click.option("--samples", type=int, default=100_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def fidelity(family, q, n, m, target, spec_path, method, alpha, beta, channel_path, samples, seed):
    """Print one row per requested method."""
    try:
        if spec_path is not None:
            with open(spec_path) as fh:
                shape, spec_target = CircuitShape.from_json(fh.read())
            fam, q, n, m = shape.family, shape.q, shape.n, shape.m
            tgt = spec_target if spec_target is not None else RecycleTarget.parse(target)
            tgt.validate(n)
        else:
            if n is None:
                raise click.UsageError("--n is required without --spec")
            fam, tgt = _parse_common(family, target, n, m)
        methods = [s.strip() for s in method.split(",") if s.strip()]
        if not methods:
            raise click.UsageError("no methods given")
    except (RewindlabError, ValueError) as exc:
        raise click.UsageError(str(exc))
    channel, stats = _load_channel(channel_path, alpha, beta)
    for name in methods:
        try:
            res = _evaluate(name, fam, q, n, m, tgt, channel, stats, samples, seed)
        except RewindlabError as exc:
            click.echo(f"error: {name}: {exc}", err=True)
            sys.exit(COMPUTE_EXIT)
        exact = _exact(res.value)
        row = f"{fam.value} q={q} n={n} m={m} target={tgt} {name}: {_decimal(res.value)}"
        if exact:
            row += f" (= {exact})"
        if res.stderr is not None:
            row += f" +/- {res.stderr:.3g}"
        click.echo(row)


@main.command()
@click.option("--family", type=click.Choice([f.value for f in Family]), default="conv")
@click.option("--q", "qs", default="2", show_default=True, help="comma list of qudit dimensions")
@click.option("--n", "ns", required=True, help="range a:b or comma list")
@click.option("--m", "ms", default="1", show_default=True, help="range a:b or comma list")
@click.option("--target", default="1", show_default=True)
@click.option("--method", default="closed", show_default=True)
@click.option("--alpha", type=float, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--channel", "channel_path", type=click.Path(exists=True), default=None)
@click.option("--samples", type=int, default=100_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", type=click.Path(), required=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
def sweep(family, qs, ns, ms, target, method, alpha, beta, channel_path, samples, seed, output, fmt):
    """Write rows family,q,n,m,target,method,value,stderr,seed over a grid."""

    def parse_range(text: str) -> list[int]:
        if ":" in text:
            a, b = text.split(":", 1)
            return list(range(int(a), int(b) + 1))
        return [int(x) for x in text.split(",") if x.strip()]

    try:
        fam = Family(family)
        tgt = RecycleTarget.parse(target)
        q_list, n_list, m_list = parse_range(qs), parse_range(ns), parse_range(ms)
        methods = [s.strip() for s in method.split(",") if s.strip()]
        if not methods or not q_list or not n_list or not m_list:
            raise click.UsageError("empty sweep ranges or method list")
    except (ValueError, RewindlabError) as exc:
        raise click.UsageError(str(exc))

    from rewindlab.errors import InvalidShapeError, InvalidTargetError

    channel, stats = _load_channel(channel_path, alpha, beta)
    for name in methods:  # refuse here: a per-point refusal would read as an infeasible point
        try:
            _check_channel_route(name, channel)
        except UnsupportedRegimeError as exc:
            click.echo(f"error: {name}: {exc}", err=True)
            sys.exit(COMPUTE_EXIT)
    rows = []
    for q in q_list:
        for n in n_list:
            for m in m_list:
                try:
                    tgt.validate(n)
                    for name in methods:
                        res = _evaluate(name, fam, q, n, m, tgt, channel, stats, samples, seed)
                        rows.append(
                            {
                                "family": fam.value,
                                "q": q,
                                "n": n,
                                "m": m,
                                "target": str(tgt),
                                "method": name,
                                "value": _decimal(res.value),
                                "stderr": "" if res.stderr is None else f"{res.stderr:.9g}",
                                "seed": seed,
                            }
                        )
                except (InvalidShapeError, InvalidTargetError, UnsupportedRegimeError):
                    continue  # infeasible grid point (parity, index range)
                except RewindlabError as exc:
                    click.echo(f"error at q={q} n={n} m={m}: {exc}", err=True)
                    sys.exit(COMPUTE_EXIT)

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["family", "q", "n", "m", "target", "method", "value", "stderr", "seed"])
        writer.writeheader()
        writer.writerows(rows)
        payload = buf.getvalue()
    else:
        payload = json.dumps(rows, indent=0, sort_keys=True) + "\n"
    with open(output, "w", newline="") as fh:
        fh.write(payload)
    click.echo(f"wrote {len(rows)} rows to {output}")


@main.command()
@click.option("--from", "start", required=True, help="a,b")
@click.option("--to", "end", required=True, help="c,d")
@click.option("--s", "s", type=int, required=True, help="lower diagonal y = x + s")
@click.option("--t", "t", type=int, required=True, help="upper diagonal y = x + t")
@click.option("--method", default="all", show_default=True, help="reflection,trig,dp or all")
def paths(start, end, s, t, method):
    """Count monotone paths confined to the diagonal band."""
    from rewindlab import pathcount

    try:
        a = tuple(int(x) for x in start.split(","))
        b = tuple(int(x) for x in end.split(","))
        band = pathcount.BandConstraint(s, t)
        names = ["reflection", "trig", "dp"] if method == "all" else [m.strip() for m in method.split(",")]
    except (ValueError, RewindlabError) as exc:
        raise click.UsageError(str(exc))
    for name in names:
        try:
            count = pathcount.count_paths(a, b, band, method=name)
        except RewindlabError as exc:
            click.echo(f"error: {name}: {exc}", err=True)
            sys.exit(COMPUTE_EXIT)
        click.echo(f"{name}: {count}")


@main.command("noise-stats")
@click.option("--channel", "channel_path", type=click.Path(exists=True), required=True)
def noise_stats(channel_path):
    """Print alpha, beta, beta_u, beta_d and boundary overlaps of a channel."""
    stats = _channel_stats(_read_channel(channel_path))
    for name in ("alpha", "beta", "beta_u", "beta_d", "recycled_one", "recycled_s"):
        click.echo(f"{name} = {getattr(stats, name):.12g}")


@main.command()
@click.option("--family", type=click.Choice([f.value for f in Family]), default="conv")
@click.option("--q", "q", type=int, default=2)
@click.option("--n", "n", type=int, required=True)
@click.option("--m", "m", type=int, default=1)
@click.option("--target", default="1")
@click.option("--alpha", type=float, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--channel", "channel_path", type=click.Path(exists=True), default=None)
@click.option("--tolerance", type=float, default=1e-9, show_default=True)
def compare(family, q, n, m, target, alpha, beta, channel_path, tolerance):
    """Run every feasible deterministic method and report the max deviation."""
    from rewindlab.errors import TooLargeError

    try:
        fam, tgt = _parse_common(family, target, n, m)
    except (RewindlabError, ValueError) as exc:
        raise click.UsageError(str(exc))
    channel, stats = _load_channel(channel_path, alpha, beta)
    candidates = ["closed", "sum", "twirl"]
    if stats is None:
        candidates.insert(1, "wall")
    if fam is Family.CONVOLUTIONAL:
        candidates.append("transfer")
    if channel is None and stats is not None:
        candidates.remove("twirl")  # bare (alpha, beta) has no Kraus set to simulate

    values = {}
    for name in candidates:
        try:
            values[name] = float(_evaluate(name, fam, q, n, m, tgt, channel, stats, 0, 0).value)
        except TooLargeError:
            continue
        except RewindlabError:
            continue
    if len(values) < 2:
        click.echo("fewer than two feasible methods", err=True)
        sys.exit(COMPUTE_EXIT)
    names = sorted(values)
    worst = 0.0
    for i, a_name in enumerate(names):
        for b_name in names[i + 1 :]:
            worst = max(worst, abs(values[a_name] - values[b_name]))
    for name in names:
        click.echo(f"{name}: {values[name]:.15g}")
    click.echo(f"max pairwise deviation: {worst:.3g}")
    if worst > tolerance:
        sys.exit(TOLERANCE_EXIT)


if __name__ == "__main__":
    main()
