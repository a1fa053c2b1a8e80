"""Fuzzing of the two parsers that read outside input: ``load_mesh`` on
random and mutated STL and OBJ bytes, and ``load_descriptor`` on random
JSON values and raw bytes. A parser may refuse its input only with
``MeshError``, ``DescriptorError`` or ``FileNotFoundError``, and the CLI
turns every refusal into exit 1 with one line on stderr. A descriptor that
loads is planned, and the plan ends in exit 0, 1 or 2 without a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from softjig.cli import main
from softjig.descriptors import DescriptorError, load_descriptor
from softjig.fixtures import box_mesh
from softjig.mesh import MeshError, load_mesh, save_obj, save_stl_ascii, save_stl_binary

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def cube_files() -> dict[str, bytes]:
    """A 10 mm cube as binary STL, ASCII STL and OBJ bytes."""
    cube = box_mesh((0, 0, 0), (10, 10, 10))
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, save in (("cube.stl", save_stl_binary), ("ascii.stl", save_stl_ascii),
                           ("cube.obj", save_obj)):
            save(cube, Path(tmp) / name)
            files[name] = (Path(tmp) / name).read_bytes()
    return files


CUBES = cube_files()


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` with a few bytes overwritten, cut out or inserted."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(data)))
        chunk = draw(st.binary(min_size=1, max_size=8))
        edit = draw(st.sampled_from(["overwrite", "cut", "insert"]))
        if edit == "overwrite":
            data[at:at + len(chunk)] = chunk
        elif edit == "cut":
            del data[at:at + len(chunk)]
        else:
            data[at:at] = chunk
    return bytes(data)


mesh_files = st.one_of(
    st.tuples(st.sampled_from(["cube.stl", "cube.obj"]), st.binary(max_size=400)),
    st.sampled_from(sorted(CUBES)).flatmap(
        lambda name: st.tuples(st.just(name), mutated(CUBES[name]))),
)


def run_cli(args: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


def assert_refused_in_one_line(descriptor: Path) -> None:
    code, err = run_cli(["matrices", str(descriptor)])
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("softjig: ")


@given(mesh=mesh_files)
@example(mesh=("cube.obj", b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n"))
@example(mesh=("cube.obj", b"# caf\xe9\nv 0 0 0\n"))
@FUZZ
def test_load_mesh_refuses_only_with_mesh_errors(tmp_path, mesh):
    name, data = mesh
    path = tmp_path / name
    path.write_bytes(data)
    try:
        load_mesh(path)
    except (MeshError, FileNotFoundError):
        descriptor = tmp_path / "assembly.json"
        descriptor.write_text(json.dumps({"parts": [
            {"id": "part", "mesh_path": name, "mass_g": 1.0}]}))
        assert_refused_in_one_line(descriptor)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12)

part_entries = st.fixed_dictionaries({}, optional={
    "id": st.sampled_from(["a", "b"]) | json_values,
    "mesh_path": st.sampled_from(["cube.stl", "missing.stl", "", "."]) | json_values,
    "mass_g": st.floats(0.5, 5.0) | json_values,
    "pose": st.fixed_dictionaries({}, optional={
        "rotation": st.just([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) | json_values,
        "translation_mm": st.lists(st.floats(-20, 20), min_size=3, max_size=3) | json_values,
    }) | json_values,
    "group": json_values,
})

CUBE_PART = {"id": "a", "mesh_path": "cube.stl", "mass_g": 1.0}
IDENTITY = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
HUGE = 10 ** 400   # valid JSON, beyond any float

# cubes on distinct cells of a 10 mm grid touch or stand apart, so these load
placed_cubes = st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=3,
                        unique=True).map(lambda cells: {"parts": [
    {"id": f"p{k}", "mesh_path": "cube.stl", "mass_g": 1.0 + k,
     "pose": {"rotation": IDENTITY, "translation_mm": [10 * c for c in cell]}}
    for k, cell in enumerate(cells)]})

descriptors = st.one_of(
    json_values,
    placed_cubes,
    st.fixed_dictionaries({"parts": st.lists(part_entries | json_values, max_size=3)}, optional={
        "contact_epsilon_mm": json_values,
        "sweep": st.fixed_dictionaries({}, optional={"max_distance_mm": json_values,
                                                     "step_count": json_values}) | json_values,
    }),
)


def assert_loads_or_refused_in_one_line(directory: Path, data: bytes) -> None:
    """``data`` as a descriptor beside a cube STL either loads or is
    refused with one of the parser's errors, and by the CLI in one line.
    A descriptor that loads is planned in the order of its part ids: the
    CLI exits 0, 1 or 2, with at most one line on stderr."""
    (directory / "cube.stl").write_bytes(CUBES["cube.stl"])
    descriptor = directory / "assembly.json"
    descriptor.write_bytes(data)
    try:
        assembly = load_descriptor(descriptor)
    except (MeshError, DescriptorError, FileNotFoundError):
        assert_refused_in_one_line(descriptor)
        return
    code, err = run_cli(["plan", str(descriptor), "--sequence=" + ",".join(assembly.part_ids)])
    assert code in (0, 1, 2) and len(err.splitlines()) <= 1, (code, err)


@given(value=descriptors)
@example(value={"parts": [{**CUBE_PART, "mass_g": HUGE}]})
@example(value={"parts": [{**CUBE_PART, "pose": {"rotation": IDENTITY,
                                                  "translation_mm": [HUGE, 0, 0]}}]})
@example(value={"parts": [{**CUBE_PART, "pose": {"rotation": [[HUGE, 0, 0], *IDENTITY[1:]],
                                                  "translation_mm": [0, 0, 0]}}]})
@example(value={"parts": [CUBE_PART], "sweep": {"step_count": HUGE}})
@example(value={"parts": [CUBE_PART], "contact_epsilon_mm": HUGE})
@FUZZ
def test_load_descriptor_refuses_random_json_only_with_its_errors(tmp_path, value):
    assert_loads_or_refused_in_one_line(tmp_path, json.dumps(value).encode())


@given(data=st.binary(max_size=200))
@example(data=b"\x80")
@example(data=b"[" * 100_000)   # nested past the recursion limit
@FUZZ
def test_load_descriptor_refuses_raw_bytes_only_with_its_errors(tmp_path, data):
    assert_loads_or_refused_in_one_line(tmp_path, data)
