"""Every pulse estimator takes a `Trace`: cubes stay at the edges of the library.

Only the modules that make, read or write cubes name `VideoCube`, and a cube
becomes a trace at three places only: where the study builds its corpora and
where the CLI reads a cube to estimate from or a corpus to train on.

Clip standardization is the estimator's decision: outside it, rows are
standardized only by `signal_core.standardize`, so the study reads its rate
input from `estimator.standardized_stitch` and does not rebuild it.
"""

import ast
from pathlib import Path

import pulsegate

SRC = Path(pulsegate.__file__).resolve().parent
CUBE_MODULES = {"signal_core", "synth", "fileio", "cli", "__init__"}
TRACE_SITES = {("experiment", "_scene_videos"), ("cli", "cmd_estimate"),
               ("cli", "_read_corpus_dir")}


def modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def names(tree):
    """Every identifier a module uses: names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def calling_functions(node, callee, function=None):
    """The innermost function (None at module level) around each call of `callee`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and callee in names(child.func):
            yield function
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        yield from calling_functions(child, callee,
                                     getattr(child, "name", "<lambda>") if inner else function)


def test_only_the_cube_modules_name_video_cube():
    naming = {stem for stem, tree in modules().items() if "VideoCube" in set(names(tree))}
    assert "fileio" in naming  # the search sees a use
    assert sorted(naming - CUBE_MODULES) == []


def test_spatial_mean_trace_is_called_only_at_the_boundary():
    sites = [(stem, function) for stem, tree in modules().items()
             for function in calling_functions(tree, "spatial_mean_trace")]
    assert sorted(sites) == sorted(TRACE_SITES)


def test_standardize_rows_is_called_only_in_the_estimator():
    sites = {(stem, function) for stem, tree in modules().items()
             for function in calling_functions(tree, "standardize_rows")}
    assert any(stem == "estimator" for stem, _ in sites)  # the search sees a use
    assert sorted(site for site in sites if site[0] != "estimator") == [
        ("signal_core", "standardize")]
