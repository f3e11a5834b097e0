"""Command line entry point: python -m plasmonres <subcommand> ..."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
