"""`python -m donaldson_cp2`: the command-line interface, as the
installed `donaldson-cp2` script runs it."""

from .cli import main

if __name__ == "__main__":
    main()
