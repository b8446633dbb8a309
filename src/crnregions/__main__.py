"""``python -m crnregions``: the crnregions command line."""

from .cli import main

if __name__ == "__main__":
    main(prog_name="crnregions")
