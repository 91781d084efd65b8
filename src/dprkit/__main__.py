"""`python -m dprkit`: the dprkit command line."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
