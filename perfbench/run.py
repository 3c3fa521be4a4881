#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload campaign-hourly --seed 1 --seconds 20 --trace 0

The Go toolchain builds perfbench/ (its own module, which replaces the
repository module with the checkout's sources) into .bench_build/ — or
$CARGO_TARGET_DIR when set — with its build cache, module cache and
temporary files kept there too, so that nothing outside the checkout is
read or written. The benchmark binary's last output line is the result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: run from the root of a checkout (no go.mod here)", file=sys.stderr)
        return 2
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    home = os.path.join(build, "perfbench")
    tmp = os.path.join(home, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(home, "gocache"),
        "GOPATH": os.path.join(home, "gopath"),
        "GOMODCACHE": os.path.join(home, "gopath", "pkg", "mod"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, "config"),
        "TMPDIR": tmp,
    })
    env.pop("GOMAXPROCS", None)
    exe = os.path.join(home, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=bench, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [exe, "-work", os.path.join(home, "work")] + sys.argv[1:]
    return subprocess.run(args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
