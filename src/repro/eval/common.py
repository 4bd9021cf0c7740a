"""What every eval shares: the :class:`Eval` record that
``runall.EVALS`` lists, the default seed, and the folds more than one
figure uses."""

from __future__ import annotations

import typing

DEFAULT_SEED = 20160402  # the paper's conference date


class Eval(typing.NamedTuple):
    """One committed result (two files for ``profile``) and its recipe.

    ``points`` are picklable keys, one per independent simulation.
    ``run_point(point)`` runs in a worker process and returns a
    picklable outcome; ``fold({point: outcome})`` runs in the parent
    and returns the structured results the claims in
    ``benchmarks/claims.py`` read; ``render(results)`` returns
    ``{filename: contents}`` for exactly the ``files`` the eval
    declares.  Only names and points cross the process boundary, so
    the callables may be closures.  ``runall.evaluate`` is the one
    way to run an eval.
    """

    name: str
    points: tuple
    run_point: typing.Callable
    fold: typing.Callable
    render: typing.Callable
    files: tuple


def swept(name: str, points: tuple, run_point, fold, render) -> Eval:
    """An eval over several points: ``<name>.txt`` holds
    ``render(fold({point: outcome}))``."""
    filename = f"{name}.txt"
    return Eval(name, points, run_point, fold,
                lambda results: {filename: render(results) + "\n"},
                (filename,))


def single(name: str, run, render) -> Eval:
    """An eval that is one simulation: its results are ``run()``'s and
    ``<name>.txt`` holds ``render(results)``."""
    return swept(name, (None,), lambda _point: run(),
                 lambda outcomes: outcomes[None], render)


def normalised(averages: dict, benchmarks, counts) -> dict:
    """benchmark -> [(count, average, average / first count's average)].

    ``averages`` maps (benchmark, count) points to averages; iterating
    the canonical ``benchmarks`` and ``counts`` makes the result
    independent of the order the points were computed in.
    """
    return {
        benchmark: [
            (count, averages[benchmark, count],
             averages[benchmark, count] / averages[benchmark, counts[0]])
            for count in counts
        ]
        for benchmark in benchmarks
    }


def series_rows(results: dict) -> list[tuple]:
    """Table rows for :func:`normalised` results."""
    return [
        (benchmark, count, int(average), f"{norm:.2f}")
        for benchmark, series in results.items()
        for count, average, norm in series
    ]


def fs_name(domain: int) -> str:
    """The m3fs instance serving kernel domain ``domain``."""
    return "m3fs" if domain == 0 else f"m3fs{domain}"
