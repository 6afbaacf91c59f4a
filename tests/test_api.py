"""The package root: exactly the documented API, and every name its users import."""

import ast
import importlib
import re
from pathlib import Path

import looadapt
from looadapt import SigmoidalModel
from looadapt.models import LinearMuLine, ReluMuLine

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
    """README's "Adding a model" names every abstract method, no other member
    of SigmoidalModel, and every member a run reads of the origin line, which
    both built-in lines have."""
    assert SigmoidalModel.__abstractmethods__ == {"param_dim", "num_features", "mu_line"}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Adding a model", 1)[1].split("\n#", 1)[0]
    named = set(re.findall(r"`(\w+)[`(]", section))  # a name, or a call such as `grad_mu(i)`
    assert {name for name in named if hasattr(SigmoidalModel, name)} == SigmoidalModel.__abstractmethods__
    origin = {"mu", "weighted_grad_mu", "grad_mu", "hessian_projection", "along", "gradient_fan"}
    assert origin <= named
    for line_type in (LinearMuLine, ReluMuLine):
        assert {name for name in origin if hasattr(line_type, name) or name in line_type.__dataclass_fields__} == origin
