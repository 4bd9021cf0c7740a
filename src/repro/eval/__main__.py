"""``python -m repro.eval NAME [NAME...]``: run the named evals in this
process and print their reports exactly as committed under ``results/``
(``python -m repro.eval.runall`` is what writes them)."""

import sys

from repro.eval import runall


def main(names: list[str]) -> int:
    try:
        evals = runall.select_evals(names)
    except ValueError as error:
        print(f"python -m repro.eval: {error}", file=sys.stderr)
        return 2
    for entry in evals:
        for filename, contents in entry.run().items():
            if filename.endswith(".txt"):  # not profile's trace JSON
                sys.stdout.write(contents)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
