"""Time one benchmark set-up (import, inputs, warm-up) in this fresh
interpreter and print its raw and corrected seconds.  run.py calls it as

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys

import run

if __name__ == "__main__":
    run.pin_environment()
    raw, corrected, _ = run.timed_setup(sys.argv[1], int(sys.argv[2]))
    print(raw, corrected)
