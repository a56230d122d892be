"""External challenge model that answers every request line with ``*``: the
sparse form of the protocol with nothing listed, i.e. the uniform
distribution.  It does no modelling, so a run times the line protocol.
"""

import sys


def main() -> None:
    for _ in sys.stdin:
        sys.stdout.write("*\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
