"""The package root: exactly the documented API, and every name its users import."""

import ast
import importlib
import re
from pathlib import Path

import looadapt
from looadapt import SigmoidalModel

ROOT = Path(__file__).resolve().parents[1]

DOCUMENTED = {
    "Dataset", "PosteriorDraws", "RunConfig", "load_dataset_csv", "load_draws_csv", "GaussianPrior",
    "SigmoidalModel", "LogisticModel", "ReluOneModel",
    "run_loo", "LooReport", "ObservationResult",
    "LooAdaptError", "ValidationError", "DimensionError", "DomainError",
    "grad_log_posterior",
}


def test_root_exports_exactly_the_documented_names():
    assert len(looadapt.__all__) == len(DOCUMENTED) == 17
    assert set(looadapt.__all__) == DOCUMENTED
    for name in looadapt.__all__:
        assert getattr(looadapt, name) is not None, name
    assert looadapt.__version__


def test_every_name_the_benchmark_generator_imports_resolves():
    path = ROOT / "perfbench" / "generate.py"
    imports = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "looadapt"
        for alias in node.names
    ]
    assert ("looadapt", "grad_log_posterior") in imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_a_new_model_implements_what_the_readme_lists():
    """README's "Adding a model" names every abstract method, and of the
    concrete ones only grad_mu_batch, which SigmoidalModel derives."""
    assert SigmoidalModel.__abstractmethods__ == {
        "param_dim", "num_features", "mu_batch", "mu_line", "hessian_projection",
    }
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Adding a model", 1)[1].split("\n#", 1)[0]
    listed = {name for name in re.findall(r"`(\w+)`", section) if hasattr(SigmoidalModel, name)}
    assert listed - SigmoidalModel.__abstractmethods__ == {"grad_mu_batch"}
    assert SigmoidalModel.__abstractmethods__ <= listed
