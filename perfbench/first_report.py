"""One minimal report from a fresh interpreter, timed from outside for setup_s.

Usage: python3 first_report.py SRC_DIR CONFIG OUTPUT
"""

import contextlib
import os
import sys

if __name__ == "__main__":
    src, config, output = sys.argv[1:4]
    sys.path.insert(0, src)
    from qauthsim import cli

    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        code = cli.main(["run", "--config", config, "--output", output])
    sys.exit(code)
