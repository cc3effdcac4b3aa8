"""Hostile values for every option of every command, run through `cli.main`.

Each option of `cli.OPTIONS` gets the values its type invites: nan, inf,
-inf, 0 and -1 for floats; 0, -1 and 2**63 for ints; a directory, an empty
file and a missing path for paths.  Every case must end in a documented exit
code with exactly one `error:` line on failure, raise nothing out of
`main`, and a usage error must come before any training.
"""

import pytest

from conftest import synthetic_images, write_idx_pair
from qocnn import cli, model as model_mod, training

DOCUMENTED = {0, 2, 3, 4, 5}
VALUES = {
    float: ("nan", "inf", "-inf", "0", "-1"),
    int: ("0", "-1", str(2**63)),  # 2**63: one past a signed 64-bit int
    "path": ("directory", "empty-file", "missing"),
}
ARCH_OPTIONS = ("conv_k", "conv_s", "pool_w", "pool_p")

# (command, option, value) -> (exit code, why the value is not a usage
# error); every other case must fail with one of 2, 3, 4 and 5
LEGAL = {
    ("train", "seed", "0"): (0, "seed 0 is a seed"),
    ("train", "checkpoint", "empty-file"): (0, "an output: the file is replaced"),
    ("train", "checkpoint", "missing"): (0, "an output: the file is made"),
    ("train", "out_dir", "directory"): (0, "an existing directory takes the outputs"),
    ("train", "out_dir", "missing"): (0, "an output: the directory is made"),
    ("evaluate", "out_dir", "directory"): (0, "an existing directory takes the outputs"),
    ("evaluate", "out_dir", "missing"): (0, "an output: the directory is made"),
    ("train", "batch_size", str(2**63)): (0, "a batch larger than the split is the split"),
    ("train", "patience", str(2**63)): (0, "a patience longer than the run never stops it"),
    ("gradcheck", "seed", "0"): (0, "seed 0 is a seed"),
    ("gradcheck", "tol", "0"): (5, "tol 0 is legal; no finite difference meets it"),
    ("estimate", "out_dir", "directory"): (0, "an existing directory takes sweep.csv"),
    ("estimate", "out_dir", "missing"): (0, "an output: the directory is made"),
    ("estimate", "layers", str(2**63)): (0, "the counts are exact integers at any size"),
    ("estimate", "n", str(2**63)): (0, "the counts are exact integers at any size"),
    ("estimate", "batch", str(2**63)): (0, "the counts are exact integers at any size"),
    ("export", "out", "empty-file"): (0, "an output: the file is replaced"),
    ("export", "out", "missing"): (0, "an output: the file is made"),
    ("export", "out_dir", "directory"): (0, "an existing directory takes model.json"),
    ("export", "out_dir", "missing"): (0, "an output: the directory is made"),
}


def _kind(opt: cli.Option):
    return "path" if opt.type is str and opt.choices is None else opt.type


# --epochs 2**63 is a legal run length, and the matrix cannot afford to run it
UNAFFORDABLE = {("train", "epochs", str(2**63))}

CASES = [
    (command, key, value)
    for key, opt in cli.OPTIONS.items()
    if _kind(opt) in VALUES
    for command in opt.defaults
    for value in VALUES[_kind(opt)]
    if (command, key, value) not in UNAFFORDABLE
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A tiny split, a qonn checkpoint and a one-row sweep file."""
    d = tmp_path_factory.mktemp("inputs")
    train_images, train_labels = write_idx_pair(d, *synthetic_images(32, seed=41), "train")
    test_images, test_labels = write_idx_pair(d, *synthetic_images(16, seed=42), "t10k")
    training.save_checkpoint(model_mod.new_model("qonn", seed=1), d / "model.ckpt")
    (d / "sweep.csv").write_text("L,n,b\n1,1,1\n")
    return {
        "train_images": train_images,
        "train_labels": train_labels,
        "test_images": test_images,
        "test_labels": test_labels,
        "checkpoint": d / "model.ckpt",
        "sweep": d / "sweep.csv",
    }


def base_args(command: str, key: str, inputs: dict, out_dir) -> list[str]:
    """A valid command line that the case's --flag=value then overrides."""
    files = {
        "train": ["train_images", "train_labels", "test_images", "test_labels"],
        "evaluate": ["checkpoint", "test_images", "test_labels"],
        "export": ["checkpoint"],
        "estimate": ["sweep"] if key in ("sweep", "out_dir") else [],
    }.get(command, [])
    argv = [command]
    for name in files:
        argv += [cli._flag(name), str(inputs[name])]
    if command in ("train", "evaluate", "export"):
        argv += ["--out-dir", str(out_dir)]
    if command == "train":
        argv += ["--epochs", "1"] + (["--arch", "qocnn"] if key in ARCH_OPTIONS else [])
    if command == "estimate" and not files:
        argv += ["--layers", "1", "--n", "1", "--batch", "1"]
    return argv


@pytest.mark.parametrize("command, key, value", CASES, ids=["-".join(c) for c in CASES])
def test_hostile_value(command, key, value, inputs, tmp_path, capsys):
    arg = value
    if value in VALUES["path"]:
        arg = tmp_path / value
        if value == "directory":
            arg.mkdir()
        elif value == "empty-file":
            arg.touch()
    argv = base_args(command, key, inputs, tmp_path / "out") + [f"{cli._flag(key)}={arg}"]
    try:
        code = cli.main(argv)
    except (Exception, SystemExit) as exc:
        pytest.fail(f"{argv} raised {exc!r}")
    out, err = capsys.readouterr()
    legal = LEGAL.get((command, key, value))
    if legal is not None:
        assert code == legal[0], legal[1]
    elif value == str(2**63):  # too large is a usage error, found before any work
        assert code == 2
    else:
        assert code in DOCUMENTED - {0}
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if code == 2:  # a usage error comes before any training
        assert not any(line.startswith("epoch ") for line in out.splitlines())
