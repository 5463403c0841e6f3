"""Geodesic automata, shift thermodynamics, and word-metric distortion.

The toolkit builds validated geodesic automata for hyperbolic groups given
by presentations, turns them into edge shifts of finite type, and computes
thermodynamic quantities on those shifts: pressure, Parry-Gibbs measures,
entropy, and growth rates.  On top of that sit exact and Monte Carlo mean
distortion between word metrics, an empirical law of large numbers, a
rough-similarity scan, and drift-based dimension estimates.  `geoshift
battery` runs the twelve-part self-test suite.
"""

__version__ = "0.1.0"

# The public surface is what the README, the command line, the battery and
# the benchmark use; everything else is imported from its submodule.
from .errors import (EmptySphere, FormatError, GeoshiftError, NonConvergence,
                     ResourceLimit, StabilizationFailure, UnknownLetter)
from .groups import GeneratingSet, free_group, free_product_group
from .grammar import parse_group_file
from .randomness import make_rng
from .automaton import (build_geodesic_automaton, enumerate_sphere,
                        sample_uniform_sphere, serialize_automaton,
                        sphere_count, validate_automaton)
from .sft import components, sft_from_automaton
from .thermo import (check_variational, entropy, gibbs_ratio_scan,
                     growth_rate, maximal_components, parry_gibbs_measure,
                     parry_measure, word_length_potential)
from .distortion import (check_growth_inequality, lln_check,
                         mean_distortion_exact, mean_distortion_mc,
                         rough_similarity_scan)
from .dimension import drift, ps_dimension_estimate, regular_growth_check
from .battery import (PROFILES, battery_lines, battery_report_dict,
                      run_battery)
from .reports import csv_text, render_report, write_artifact

__all__ = [
    "__version__",
    # errors
    "GeoshiftError", "FormatError", "UnknownLetter", "ResourceLimit",
    "EmptySphere", "StabilizationFailure", "NonConvergence",
    # groups and presentations
    "GeneratingSet", "free_group", "free_product_group", "parse_group_file",
    # randomness
    "make_rng",
    # automata
    "build_geodesic_automaton", "validate_automaton", "sphere_count",
    "enumerate_sphere", "sample_uniform_sphere", "serialize_automaton",
    # shifts
    "components", "sft_from_automaton",
    # thermodynamics
    "word_length_potential", "parry_gibbs_measure", "parry_measure", "entropy",
    "check_variational", "gibbs_ratio_scan", "maximal_components",
    "growth_rate",
    # distortion
    "mean_distortion_exact", "mean_distortion_mc", "check_growth_inequality",
    "lln_check", "rough_similarity_scan",
    # dimension
    "drift", "ps_dimension_estimate", "regular_growth_check",
    # battery
    "PROFILES", "run_battery", "battery_lines", "battery_report_dict",
    # reports
    "render_report", "csv_text", "write_artifact",
]
