"""Workload substrates: TPC-H instances and the SnowSim multi-tenant log.

TPC-H (``repro.workloads.tpch``) drives the index-selection experiments
(Figures 3 and 4); SnowSim (``repro.workloads.snowflake_sim``) is the
synthetic substitute for the paper's proprietary Snowflake query log
and drives the labeling experiments (Tables 1 and 2).
"""

from repro.workloads.tpch import TPCH_TEMPLATE_IDS, generate_tpch_workload
from repro.workloads.snowflake_sim import SnowSimConfig, generate_snowsim_workload
from repro.workloads.logs import QueryLogRecord
from repro.workloads.stream import QueryStream, StreamBatch, interleave_streams

__all__ = [
    "TPCH_TEMPLATE_IDS",
    "generate_tpch_workload",
    "SnowSimConfig",
    "generate_snowsim_workload",
    "QueryLogRecord",
    "QueryStream",
    "StreamBatch",
    "interleave_streams",
]
