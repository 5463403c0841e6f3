"""Geodesic automata, shift thermodynamics, and word-metric distortion.

The toolkit builds validated geodesic automata for hyperbolic groups given
by presentations, turns them into edge shifts of finite type, and computes
thermodynamic quantities on those shifts: pressure, Parry-Gibbs measures,
entropy, and growth rates.  On top of that sit exact and Monte Carlo mean
distortion between word metrics, an empirical law of large numbers, a
rough-similarity scan, boundary shadows, and drift-based dimension
estimates.  `geoshift battery` runs the twelve-part self-test suite.
"""

__version__ = "0.1.0"

from .errors import (CapExceeded, EmptySphere, FormatError, GeoshiftError,
                     NonConvergence, ResourceLimit, StabilizationFailure,
                     UnknownLetter)
from .groups import (GeneratingSet, GroupElement, GroupSpec, ResolvedGenSet,
                     dehn_group, finite_table_group, free_group,
                     free_product_group, normalize)
from .grammar import parse_group_file, parse_group_text
from .geometry import BallTree, ball_tree, gromov_product, word_length
from .randomness import RNG_ALGORITHM, ExactSampler, make_rng
from .automaton import (GeodesicAutomaton, ValidationReport,
                        build_geodesic_automaton, deserialize_automaton,
                        enumerate_sphere, sample_uniform_sphere,
                        serialize_automaton, sphere_count, validate_automaton)
from .sft import (Component, ComponentDecomposition, Sft, components,
                  digraph_period, sft_from_automaton, strongly_connected)
from .thermo import (GibbsReport, MarkovMeasure, MaximalPressure, Potential,
                     PsCodingReport, VariationalReport, check_variational,
                     cylinder_measure, entropy, gibbs_ratio_scan, growth_rate,
                     maximal_components, mean_potential, parry_gibbs_measure,
                     pressure, ps_coding_check, word_length_potential)
from .distortion import (DistortionReport, InequalityVerdict, LlnReport,
                         McRow, SimilarityScan, TauEstimate,
                         check_growth_inequality, cross_lipschitz,
                         distortion_report, lln_check, mean_distortion_exact,
                         mean_distortion_mc, rough_similarity_scan)
from .dimension import (DimensionEstimate, DriftEstimate, RaySample,
                        RegularGrowth, drift, drift_two_sided,
                        ps_dimension_estimate, regular_growth_check,
                        sample_ray, shadow_mass)
from .battery import (PROFILES, BatteryReport, CriterionResult, Profile,
                      battery_lines, battery_report_dict, run_battery,
                      run_criterion)
from .reports import csv_text, render_report, write_artifact

__all__ = [
    "__version__",
    # errors
    "GeoshiftError", "FormatError", "UnknownLetter", "CapExceeded",
    "ResourceLimit", "EmptySphere", "StabilizationFailure", "NonConvergence",
    # groups and presentations
    "GeneratingSet", "GroupSpec", "GroupElement", "ResolvedGenSet",
    "free_group", "finite_table_group", "free_product_group", "dehn_group",
    "normalize", "parse_group_file", "parse_group_text",
    # geometry
    "word_length", "gromov_product", "ball_tree", "BallTree",
    # randomness
    "make_rng", "ExactSampler", "RNG_ALGORITHM",
    # automata
    "GeodesicAutomaton", "ValidationReport", "build_geodesic_automaton",
    "validate_automaton", "sphere_count", "enumerate_sphere",
    "sample_uniform_sphere", "serialize_automaton", "deserialize_automaton",
    # shifts
    "Sft", "Component", "ComponentDecomposition", "components",
    "sft_from_automaton", "strongly_connected", "digraph_period",
    # thermodynamics
    "Potential", "word_length_potential", "pressure", "MarkovMeasure",
    "parry_gibbs_measure", "entropy", "mean_potential", "cylinder_measure",
    "check_variational", "VariationalReport", "gibbs_ratio_scan",
    "GibbsReport", "maximal_components", "MaximalPressure", "growth_rate",
    "ps_coding_check", "PsCodingReport",
    # distortion
    "cross_lipschitz", "mean_distortion_exact", "mean_distortion_mc",
    "McRow", "TauEstimate", "check_growth_inequality", "InequalityVerdict",
    "lln_check", "LlnReport", "rough_similarity_scan", "SimilarityScan",
    "distortion_report", "DistortionReport",
    # dimension
    "sample_ray", "RaySample", "drift", "drift_two_sided", "DriftEstimate",
    "shadow_mass", "ps_dimension_estimate", "DimensionEstimate",
    "regular_growth_check", "RegularGrowth",
    # battery
    "Profile", "PROFILES", "run_battery", "run_criterion", "BatteryReport",
    "CriterionResult", "battery_lines", "battery_report_dict",
    # reports
    "render_report", "csv_text", "write_artifact",
]
