"""Batch command-line front end.

Subcommands expose every computation route and emit plain rows or
CSV/JSON sweeps; identical command lines with identical seeds produce
byte-identical output.  Exit codes: 0 ok, 1 usage error, 2 computation
error, 3 tolerance failure in ``compare``.

``fidelity``, ``sweep`` and ``compare`` share one route table: the
method names in :data:`ROUTES`, :func:`_refusal` for every refusal that
holds at all grid points (which route answers which family, target and
noise), and :func:`_evaluate`, which calls the library for one
:class:`CircuitShape`.  ``fidelity`` and ``sweep`` refuse up front with
exit 2; ``compare`` skips a refusing route and names it on stderr.  An
unknown method is a usage error, and so is a shape the family rejects
(``sweep`` skips such grid points instead).
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction

import click

from rewindlab.circuits import CircuitShape, Family, RecycleTarget, protocol_layout
from rewindlab.errors import InvalidParameterError, InvalidShapeError, InvalidTargetError, RewindlabError, UnsupportedRegimeError
from rewindlab.result import FidelityResult

# Every computation route, in the order ``compare`` tries them.
ROUTES = ("closed", "wall", "sum", "transfer", "twirl", "mc")

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
    """Returns (channel, stats) from a JSON file or bare (alpha, beta).

    Bare statistics outside [0, 1] are a usage error: both are overlaps
    that no trace-preserving channel takes past 1 (Cauchy-Schwarz).
    """
    from rewindlab.noise import ChannelStats

    if path is not None:
        channel = _read_channel(path)
        return channel, _channel_stats(channel)
    for name, value in (("alpha", alpha), ("beta", beta)):
        if value is not None and not 0 <= value <= 1:
            raise click.UsageError(f"--{name} {value} is outside [0, 1]")
    if alpha is not None or beta is not None:
        stats = ChannelStats(
            alpha=alpha if alpha is not None else 1.0,
            beta=beta if beta is not None else 1.0,
            beta_u=1.0,
            beta_d=1.0,
        )
        return None, stats
    return None, None


def _refusal(method: str, family: Family, target: RecycleTarget, channel, stats) -> str | None:
    """Why ``method`` cannot answer this family, target and noise at any grid point.

    Returns None when the route answers.  Every refusal here guards a
    library function that would otherwise return a number from another
    model; checks that depend on the point (sizes, caps, the qudit
    dimension) stay with the library.
    """
    noisy = stats is not None
    if method in ("closed", "transfer", "sum") and channel is not None and channel.arity == 2:
        return "arity-2 channels are not modelled by this route; use twirl or mc"
    if method == "closed" and noisy and family is not Family.CONVOLUTIONAL:
        return "noisy closed forms exist for the convolutional family only"
    if method == "closed" and noisy and target.kind != "single":
        return "the noisy closed form covers single-qudit targets"
    if method == "closed" and family is not Family.CONVOLUTIONAL and target != RecycleTarget.single(1):
        return f"{family.value} closed forms cover recycling the first qudit"
    if method == "wall" and noisy:
        return "single-wall sums are noiseless only"
    if method == "transfer" and family is not Family.CONVOLUTIONAL:
        return "transfer matrices cover the convolutional family only"
    if method in ("twirl", "mc") and noisy and channel is None:
        return "bare --alpha/--beta give no Kraus operators to simulate; use --channel"
    return None


def _refuse(methods: list[str], family: Family, target: RecycleTarget, channel, stats) -> None:
    """Exit 2 on the first method that refuses, before any computation."""
    for name in methods:
        reason = _refusal(name, family, target, channel, stats)
        if reason is not None:
            click.echo(f"error: {name}: {reason}", err=True)
            sys.exit(COMPUTE_EXIT)


def _evaluate(
    method: str, shape: CircuitShape, target: RecycleTarget, channel, stats, samples: int, seed: int
) -> FidelityResult:
    """One route at one point; :func:`_refusal` has already admitted the method."""
    from rewindlab import closedform, oracle, statmech

    q, n = shape.q, shape.n
    if channel is not None:
        oracle.check_channel_dim(channel, q)
    a, b, rb = (1, 1, (1, 1)) if stats is None else (stats.alpha, stats.beta, stats.recycled_boundary)
    if method == "closed":
        if stats is not None:
            return closedform.noisy_conv_fidelity(q, n, a, b, target, rb)
        if shape.family is Family.CONVOLUTIONAL:
            return closedform.conv_fidelity(q, n, target)
        if shape.family is Family.HYBRID:
            return closedform.hybrid_fidelity(q, n, shape.m)
        return closedform.local_fidelity(q, n, shape.m)
    if method == "transfer":
        return statmech.transfer_fidelity(q, n, target, a, b, rb)
    layout = protocol_layout(shape, target)
    if method == "twirl":
        return oracle.exact_twirl_fidelity(layout, target, channel=channel)
    if method == "mc":
        return oracle.mc_average_fidelity(layout, target, channel=channel, samples=samples, rng=seed)
    lattice = statmech.lattice_from_circuit(layout, target)
    if method == "wall":
        return statmech.single_wall_fidelity(lattice)
    return statmech.partition_sum_exhaustive(lattice, statmech.TrivalentRule(q, alpha=a, beta=b, recycled_boundary=rb))


def _parse_methods(text: str) -> list[str]:
    methods = [s.strip() for s in text.split(",") if s.strip()]
    if not methods:
        raise click.UsageError("no methods given")
    for name in methods:
        if name not in ROUTES:
            raise click.UsageError(f"unknown method {name!r}; choose from {','.join(ROUTES)}")
    return methods


def _route_options(sampled: bool):
    """Family, target and noise options, plus --samples/--seed if ``sampled``."""
    options = [
        click.option("--family", type=click.Choice([f.value for f in Family]), default="conv"),
        click.option("--target", default="1", show_default=True, help="i | prefix:k | pair:i,j"),
        click.option("--alpha", type=float, default=None, help="channel statistic alpha (with --beta)"),
        click.option("--beta", type=float, default=None),
        click.option("--channel", "channel_path", type=click.Path(exists=True), default=None, help="Kraus channel JSON file"),
    ]
    if sampled:
        options += [
            click.option("--samples", type=click.IntRange(min=1), default=100_000, show_default=True),
            click.option("--seed", type=int, default=0, show_default=True),
        ]

    def apply(command):
        for option in reversed(options):
            command = option(command)
        return command

    return apply


@click.group(cls=_Group)
def main():
    """Averaged fidelity of the qudit rewinding protocol, four ways."""


@main.command()
@_route_options(sampled=True)
@click.option("--q", "q", type=int, default=2, show_default=True)
@click.option("--n", "n", type=int, default=None)
@click.option("--m", "m", type=int, default=1, show_default=True)
@click.option("--spec", "spec_path", type=click.Path(exists=True), default=None, help="JSON circuit description {family, n, m, q, target}")
@click.option("--method", default="closed", show_default=True, help=f"comma list of {','.join(ROUTES)}")
def fidelity(family, target, alpha, beta, channel_path, samples, seed, q, n, m, spec_path, method):
    """Print one row per requested method."""
    try:
        if spec_path is not None:
            with open(spec_path) as fh:
                shape, spec_target = CircuitShape.from_json(fh.read())
        elif n is None:
            raise click.UsageError("--n is required without --spec")
        else:
            shape, spec_target = CircuitShape(Family(family), n, m, q), None
        tgt = spec_target if spec_target is not None else RecycleTarget.parse(target)
        tgt.validate(shape.n)
    except KeyError as exc:
        raise click.UsageError(f"spec {spec_path} lacks the key {exc}")
    except TypeError as exc:
        raise click.UsageError(f"spec {spec_path} has a field of the wrong type ({exc})")
    except (RewindlabError, ValueError) as exc:
        raise click.UsageError(str(exc))
    methods = _parse_methods(method)
    channel, stats = _load_channel(channel_path, alpha, beta)
    _refuse(methods, shape.family, tgt, channel, stats)
    for name in methods:
        try:
            res = _evaluate(name, shape, tgt, channel, stats, samples, seed)
        except RewindlabError as exc:
            click.echo(f"error: {name}: {exc}", err=True)
            sys.exit(COMPUTE_EXIT)
        exact = _exact(res.value)
        row = f"{shape.family.value} q={shape.q} n={shape.n} m={shape.m} target={tgt} {name}: {_decimal(res.value)}"
        if exact:
            row += f" (= {exact})"
        if res.stderr is not None:
            row += f" +/- {res.stderr:.3g}"
        click.echo(row)


@main.command()
@_route_options(sampled=True)
@click.option("--q", "qs", default="2", show_default=True, help="comma list of qudit dimensions")
@click.option("--n", "ns", required=True, help="range a:b or comma list")
@click.option("--m", "ms", default="1", show_default=True, help="range a:b or comma list")
@click.option("--method", default="closed", show_default=True, help=f"comma list of {','.join(ROUTES)}")
@click.option("--output", type=click.Path(), required=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
def sweep(family, target, alpha, beta, channel_path, samples, seed, qs, ns, ms, method, output, fmt):
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
        if not q_list or not n_list or not m_list:
            raise click.UsageError("empty sweep ranges")
    except (ValueError, RewindlabError) as exc:
        raise click.UsageError(str(exc))
    methods = _parse_methods(method)
    channel, stats = _load_channel(channel_path, alpha, beta)
    _refuse(methods, fam, tgt, channel, stats)
    rows = []
    for q in q_list:
        for n in n_list:
            for m in m_list:
                try:
                    shape = CircuitShape(fam, n, m, q)
                    tgt.validate(n)
                except (InvalidShapeError, InvalidTargetError):
                    continue  # infeasible grid point (shape rules, index range)
                for name in methods:
                    try:
                        res = _evaluate(name, shape, tgt, channel, stats, samples, seed)
                    except UnsupportedRegimeError:
                        continue  # this method does not cover the point; the others may
                    except RewindlabError as exc:
                        click.echo(f"error at q={q} n={n} m={m}: {exc}", err=True)
                        sys.exit(COMPUTE_EXIT)
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

    backends = ["reflection", "trig", "dp"]
    try:
        a = tuple(int(x) for x in start.split(","))
        b = tuple(int(x) for x in end.split(","))
        if len(a) != 2 or len(b) != 2:
            raise click.UsageError(f"points are two integers a,b; got {start!r} and {end!r}")
        band = pathcount.BandConstraint(s, t)
        names = backends if method == "all" else [m.strip() for m in method.split(",")]
        for name in names:
            if name not in backends:
                raise click.UsageError(f"unknown method {name!r}; choose from {','.join(backends)} or all")
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
@_route_options(sampled=False)
@click.option("--q", "q", type=int, default=2)
@click.option("--n", "n", type=int, required=True)
@click.option("--m", "m", type=int, default=1)
@click.option("--tolerance", type=float, default=1e-9, show_default=True)
def compare(family, target, alpha, beta, channel_path, q, n, m, tolerance):
    """Run every feasible deterministic method and report the max deviation.

    Each route left out is named on stderr with the reason.
    """
    try:
        shape, tgt = CircuitShape(Family(family), n, m, q), RecycleTarget.parse(target)
        tgt.validate(n)
        if not tolerance >= 0:  # NaN fails every comparison
            raise click.UsageError(f"--tolerance {tolerance} must be a number >= 0")
    except (RewindlabError, ValueError) as exc:
        raise click.UsageError(str(exc))
    channel, stats = _load_channel(channel_path, alpha, beta)
    values = {}
    for name in ROUTES:
        reason = "sampled, not deterministic" if name == "mc" else _refusal(name, shape.family, tgt, channel, stats)
        if reason is None:
            try:
                values[name] = float(_evaluate(name, shape, tgt, channel, stats, 0, 0).value)
                continue
            except RewindlabError as exc:
                reason = str(exc)
        click.echo(f"skipped {name}: {reason}", err=True)
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
