"""gwlab: nearest-unvisited-point walks on pairs of lines.

Seeded construction of point processes on one or two lines, two equivalent
greedy-walk engines with truncation-safe stopping, trajectory analysis
(first passages, deficiency records, clusters, return events, lemma
audits), batch experiment drivers, and a CLI (``gwlab``).
"""

from ._version import __version__
from .errors import ValidationError
from .processes import (
    CONSTRUCTIONS,
    FLAG_BOTH,
    FLAG_LINE0,
    FLAG_LINER,
    INTERSECTING,
    INTERSECTING_INDEPENDENT,
    PARALLEL,
    PARALLEL_CONSTRUCTIONS,
    PARALLEL_DUPLICATED,
    PARALLEL_SHIFTED,
    PARALLEL_THINNED,
    SHIFT_RATIO_LIMIT,
    SINGLE_LINE,
    SINGLE_POISSON,
    ProcessSpec,
    Realization,
    couple_restrict,
    generate,
    realization_from_dict,
    realization_to_dict,
    sample_poisson,
)
from .seeding import RNG_ALGORITHM, make_generator, splitmix64, stream_seed
from .walk import (
    EXHAUSTED,
    RUN_TO_EXHAUSTION,
    TRUNCATED,
    TRUNCATION_SAFE,
    StopRule,
    Trajectory,
    cross_distance,
    run_walk,
    run_walk_naive,
    stop_margin,
    trajectories_equal,
    trajectory_from_binary,
    trajectory_to_binary,
)
from .analysis import (
    ClusterDecomposition,
    ClusterVisits,
    DeficiencyRecords,
    EventRecord,
    EventTable,
    IndentedEntrySummary,
    LemmaAudit,
    PovratakSummary,
    UVRecord,
    audit_lemmas,
    check_cluster_consecutive,
    check_indented_entry,
    check_povratak,
    check_reduced_alignment,
    cluster_visits,
    clusters_of,
    compute_Dx,
    decompose_clusters,
    detect_A_events,
    detect_crossings,
    extract_UV_sequences,
    extract_halfline_changes,
    intersect_Bn_bound,
    validate_dx_record,
)
from .experiments import (
    ExperimentConfig,
    RunSummary,
    aggregate,
    coupled_window_study,
    load_config,
    read_summaries_csv,
    run_experiment,
    sign_test_p,
    write_outputs,
    write_summaries_csv,
)
