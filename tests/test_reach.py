"""What the CLI reaches: every module-level function and method of the
package that no command enters is named here, with the reason it stays.

The argv are those of CI's console step and README's CLI examples, with a
usage error and a `--config` file among them.  They run in process, in a
fresh interpreter (so no cache another test filled hides a call), under
sys.setprofile, which records every Python function entered.  A function
that only tests call fails this test until it moves to tests/oracles/ or a
command runs it.  Each argv's exit status is checked too, so README's
examples must exit 0 in tier-1, not only in CI.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# CI's console step, in its order; NODES stands for the default node budget
# at kappa = 0.05, which CI reads from default_node_count
SCAN = ["--kappa-min", "0.05", "--kappa-max", "2", "--kappa-points", "16"]
CI_ARGV = [
    ["verify", "--which", "all"],
    ["verify", "--which", "all", "--format", "json"],
    *[["verify", "--which", group]
      for group in ("gamma0", "gamma1", "gamma2", "integral4", "polylog", "residue")],
    ["solve", *SCAN],
    ["solve", *SCAN, "--format", "json"],
    ["solve", *SCAN, "--nodes", "512"],
    ["solve", "--kappa-min", "0.001", "--kappa-max", "10", "--kappa-points", "24"],
    ["solve", "--kappa", "0.05"],
    ["solve", "--kappa", "0.05", "--nodes", "NODES"],
    ["fit-weak"],
    ["fit-weak", "--format", "json"],
    ["compare-asymptotics", "--kappa-min", "0.02", "--kappa-max", "0.3", "--kappa-points", "8"],
    ["solve", "--kappa", "0.001"],
    ["compare-asymptotics", "--kappa", "0.05"],
    ["fit-weak", "--gamma-min", "0.01", "--gamma-max", "0.01000000000000001"],
    ["solve", "--kappa", "3e307"],
    ["solve", "--kappa", "1e308"],
]


def readme_examples():
    """Each `lovelab` line of README's "CLI examples" section, less its
    comment, as CI reads them."""
    argvs, inside = [], False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            inside = line.startswith("## CLI examples")
        elif inside and line.startswith("lovelab "):
            argvs.append(re.sub(r" *#.*", "", line).split()[1:])
    return argvs


# The functions and methods no argv enters, by the reason each stays.
UNREACHED = {
    # the benchmark spans these by name, so they stay until it drops them
    "spanned by the frozen benchmark": [
        "capacitor2d._phi_moments", "capacitor2d._w", "capacitor2d.cumulative_phi",
        "capacitor2d.cumulative_phi_log", "quadrature._panel_sum", "quadrature.fit_log_tail",
    ],
    # called through the library, by CI and the benchmark, not by a command
    "library-only API": [
        "__init__.__dir__", "__init__._public_names", "love.default_node_count",
    ],
    # raised only when a value fails to converge
    "error constructors": [
        "errors.ConvergenceError.__init__",
    ],
}

PROBE = """
import contextlib, inspect, io, json, pkgutil, sys
import lovelab, lovelab.cli

argvs = json.loads(sys.argv[1])
nodes = str(lovelab.default_node_count(0.05))
argvs = [[nodes if arg == "NODES" else arg for arg in argv] for argv in argvs]
entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
exits = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            exits.append(lovelab.cli.main(argv))
        except SystemExit as exit:
            exits.append(exit.code)
sys.setprofile(None)


def codes(owner, module):
    # the functions a module or class defines in the module's own file
    for value in vars(owner).values():
        if isinstance(value, property):
            value = value.fget
        value = getattr(value, "__func__", value)
        value = inspect.unwrap(value) if callable(value) else value
        if inspect.isfunction(value) and value.__code__.co_filename == module.__file__:
            yield value.__qualname__, value.__code__
        elif (inspect.isclass(value) and value.__module__ == module.__name__
              and owner is module):
            yield from codes(value, module)


names = set()
for info in [None, *pkgutil.iter_modules(lovelab.__path__)]:
    module = lovelab if info is None else __import__("lovelab." + info.name, fromlist=["_"])
    label = "__init__" if info is None else info.name
    for qualname, code in codes(module, module):
        if code not in entered:
            names.add(label + "." + qualname)
print(json.dumps([exits, sorted(names)]))
"""

# the argv that exit other than 0: an ill-conditioned fit and an error row
# exit 1, usage errors 2
EXIT_CODES = {
    ("fit-weak", "--gamma-min", "0.01", "--gamma-max", "0.01000000000000001"): 1,
    ("solve", "--kappa", "1e308"): 1,
    ("verify", "--which", "nope"): 2,
    ("solve", "--kappa", "0.5", "--nodes", "8"): 2,
}


def test_every_function_no_command_enters_is_listed(tmp_path):
    config = tmp_path / "scan.cfg"
    config.write_text("kappa = 0.5  # from the file\nformat = json\n", encoding="utf-8")
    argvs = [*CI_ARGV, *readme_examples(),
             ["--config", str(config), "solve"],
             ["verify", "--which", "nope"],                 # usage error, exit 2
             ["solve", "--kappa", "0.5", "--nodes", "8"]]
    assert len(readme_examples()) >= 5
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs)], env=env,
                         capture_output=True, check=True, text=True, timeout=300).stdout
    exits, unreached = json.loads(out)
    assert exits == [EXIT_CODES.get(tuple(argv), 0) for argv in argvs]
    listed = sorted(name for names in UNREACHED.values() for name in names)
    assert unreached == listed
