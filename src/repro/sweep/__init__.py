"""Batch sweep engine: run the pipeline over many scenarios, in parallel."""

from .results import (
    SweepRecord,
    add_append_hook,
    append_jsonl,
    default_store_path,
    load_jsonl,
    records_json,
    remove_append_hook,
    summary_rows,
)
from .runner import (
    DEFAULT_BASELINES,
    DEFAULT_CACHE_DIR,
    DEFAULT_RETRIES,
    DEFAULT_TASK_DEADLINE_S,
    SweepResult,
    cache_path,
    code_version,
    load_cached_record,
    respawn_pool,
    run_scenario,
    run_sweep,
    store_record,
    submit_scenario,
)

__all__ = [
    "SweepRecord", "append_jsonl", "load_jsonl", "summary_rows",
    "records_json", "default_store_path", "add_append_hook",
    "remove_append_hook",
    "SweepResult", "run_sweep", "run_scenario",
    "cache_path", "code_version",
    "load_cached_record", "store_record", "submit_scenario",
    "respawn_pool",
    "DEFAULT_CACHE_DIR", "DEFAULT_BASELINES",
    "DEFAULT_RETRIES", "DEFAULT_TASK_DEADLINE_S",
]
