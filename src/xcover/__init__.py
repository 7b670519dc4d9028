"""xcover: exact set-cover variants, tree-pattern embedding, and the
polynomial reductions between them, with a differential-verification
harness that certifies each reduction against brute-force oracles."""

__version__ = "0.1.0"

from xcover.errors import (  # noqa: F401
    BudgetExceededError,
    CapacityError,
    FormatError,
    PreconditionError,
)
from xcover.instances import (  # noqa: F401
    Digraph,
    PatternTree,
    SetCoverInstance,
    SubtreeCover,
    gen_planted,
    gen_random,
    parse_instance,
    serialize_instance,
)
from xcover.partitions import (  # noqa: F401
    Partition,
    ShrunkPartition,
    count_partitions,
    enumerate_partitions,
    partition_asymptotic,
    shrink_partition,
)
from xcover.solvers import (  # noqa: F401
    SolveResult,
    exactcover_solve,
    exactcover_with_large_sets,
    heldkarp_ham,
    ktree_colorcoding,
    partialcover_dp,
    setcover_bruteforce,
    setcover_dp,
    tree_embed_backtrack,
)
from xcover.reductions import (  # noqa: F401
    HostGraphBundle,
    ReductionBatch,
    build_host_graph,
    build_pattern_tree,
    check_cover_properties,
    decide_stream,
    ham_to_setcover,
    ntree_to_setcover,
    ppc_preprocess_large,
    setcover_preprocess_large,
    solve_ham_via_setcover,
    solve_ntree_via_setcover,
    solve_ppc_via_ktree,
    solve_setcover_via_ktree,
    tree_cover,
)
from xcover.analysis import (  # noqa: F401
    BoundReport,
    VerifyConfig,
    compose_runtime,
    count_bound_log2,
    element_bound,
    koivisto_lambda,
    pipeline_total_exponent,
    run_verification_suite,
)
