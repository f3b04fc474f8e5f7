#!/usr/bin/env python3
"""Build the slicerd benchmark and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

The package under perfbench/ is built in release mode (into
$CARGO_TARGET_DIR, default .bench_build), then its `perfbench` binary
runs with the same arguments, pinned to one CPU (the lowest this process
may use), together with the slicerd it starts; it sets SLICER_THREADS to
the host's CPU count itself.
Build output goes to standard error; the binary's last line of standard
output is the JSON result. The exit code is the binary's, or 2 when the
build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def data_fs(path):
    """Filesystem type of the mount holding `path`."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) >= 3 and path.startswith(fields[1]) and len(fields[1]) > len(best):
                    best, fstype = fields[1], fields[2]
    except OSError:
        pass
    return fstype


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    os.chdir(ROOT)
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
            env=env, stdout=sys.stderr, stderr=sys.stderr)
        built = build.returncode == 0
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        built = False
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_FS"] = data_fs(ROOT)
    cpu = min(os.sched_getaffinity(0))
    env["PERFBENCH_CPU"] = str(cpu)
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu})).returncode


if __name__ == "__main__":
    sys.exit(main())
