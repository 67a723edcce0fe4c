"""Multicast scheduling tables for cache-aided multi-antenna downlinks:
symmetric and asymmetric construction, decodability certification, and
desk-scale rate/DoF evaluation."""

__version__ = "0.1.0"

from .asymmetric import (
    AsymPlan,
    CandidateCollection,
    balanced_greedy,
    donor_map,
    dof_of_table,
    linear_feasible_check,
    schedule_asymmetric,
    solve_plan,
)
from .dof import DofRegion, asymmetric_region, symmetric_region
from .errors import (
    AssemblyError,
    CcschedError,
    ConstructionError,
    InfeasibleMError,
    MalformedTableError,
    NoDonorError,
    NullityDeficientError,
    ParameterError,
    SearchFailureError,
    VerificationError,
)
from .model import (
    Group,
    ScheduleColumn,
    ScheduleTable,
    enumerate_groups,
    make_group,
    table_from_json,
    table_to_json,
)
from .rates import RatePoint, column_rate, snr_sweep
from .symmetric import (
    HatParams,
    SymmetricPlan,
    build_base_partition,
    feasible_beta_set,
    hat_params,
    regroup,
    schedule_symmetric,
)
from .verifier import (
    BeamformerSolution,
    ChannelRealization,
    build_beamformers,
    decodability_check,
    verify_numeric,
    verify_table_numeric,
)
