"""``python -m flexmarket``: the command-line front end of :mod:`flexmarket.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
