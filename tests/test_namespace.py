import inspect

import mubgeo
import mubgeo.io
from mubgeo import core, errors, geometry, mub, operators, phasespace

# public names deleted from the package: unused, or a second copy of another
DELETED = {
    core.Modulus: ["reduce", "inverse"],
    errors: ["NoInverseError", "NoCommonPointError"],
    geometry: [
        "check_apg_point",
        "check_apg_line",
        "line_row",
        "incident",
        "line_to_apg_point",
        "apg_point_to_line",
        "all_points",
        "all_lines",
        "apg_points",
        "apg_lines",
        "parallel_class",
        "incidence_matrix",
        "apg_incidence_matrix",
    ],
    mub: ["MubFamily", "basis_matrix", "mub_family", "x_matrix", "z_matrix"],
    operators: [
        "point_operator",
        "point_operator_stack",
        "line_operator_stack",
        "line_operator_sum",
    ],
    phasespace: ["marginalize"],
    mubgeo.io: ["format_float", "QUASI_HEADER", "PROBABILITY_HEADER"],
    phasespace.MubProbabilities: ["check_range"],
}


def test_star_import_binds_the_exports_and_no_module():
    namespace: dict = {}
    exec("from mubgeo import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(mubgeo.__all__)
    assert len(set(mubgeo.__all__)) == len(mubgeo.__all__)
    assert [n for n, v in namespace.items() if inspect.ismodule(v)] == []
    assert "io" not in namespace
    for name, value in namespace.items():
        assert getattr(mubgeo, name) is value


def test_deleted_names_are_gone():
    for owner, names in DELETED.items():
        for name in names:
            assert not hasattr(owner, name), name
            assert name not in mubgeo.__all__
