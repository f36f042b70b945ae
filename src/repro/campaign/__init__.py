"""Parallel campaign runner: sharded, seeded, cached simulation sweeps.

The paper's evaluation methodology is a *campaign* — many independent
seeded trials over a parameter grid.  This package makes campaigns a
first-class object:

* :class:`~repro.campaign.spec.Campaign` / :class:`~repro.campaign.
  spec.RunSpec` — declarative grid × repeats expansion with per-run
  seeds derived by SHA-256 (order- and worker-count-independent);
* :func:`~repro.campaign.runner.run_campaign` — serial or warm-pool
  execution (:mod:`~repro.campaign.pool`: persistent pre-imported
  workers, one cell in flight per worker) with per-run timeouts,
  bounded retries and partial-result reporting;
* the one check of campaign input, for the API, the CLI and ``POST
  /campaigns`` alike: ``Campaign`` construction (what to run),
  :func:`~repro.campaign.runner.check_run_options` (how to run it) and
  :class:`~repro.campaign.runner.CampaignRequest` (both, as one JSON
  object);
* :meth:`Campaign.shard(k, of) <repro.campaign.spec.Campaign.shard>` /
  :func:`~repro.campaign.results.merge_shards` — split a campaign
  deterministically across machines and reassemble a result
  byte-identical to the serial run;
* :class:`~repro.campaign.cache.ResultCache` — on-disk results keyed by
  (code fingerprint, scenario, params, seed), so re-runs only execute
  changed or missing cells;
* :mod:`~repro.campaign.scenarios` — the registry of spawn-safe
  scenario cells shared by benches, examples and ``python -m repro
  campaign``.

The determinism contract: a sharded campaign is bit-for-bit identical
to the serial one (see ``tests/integration/test_golden_determinism.py``).
"""

from repro.campaign.cache import ResultCache, code_fingerprint
from repro.campaign.pool import (
    WarmPool,
    get_warm_pool,
    shutdown_warm_pools,
)
from repro.campaign.results import CampaignResult, RunResult, merge_shards
from repro.campaign.runner import (
    MAX_RETRIES,
    MAX_WORKERS,
    CampaignRequest,
    check_run_options,
    default_workers,
    execute_spec,
    run_campaign,
)
from repro.campaign.scenarios import (
    resolve_scenario,
    scenario,
    scenario_names,
)
from repro.campaign.spec import (
    MAX_RUNS,
    Campaign,
    CampaignShard,
    RunSpec,
    derive_seed,
)

__all__ = [
    "Campaign",
    "CampaignShard",
    "RunSpec",
    "derive_seed",
    "RunResult",
    "CampaignResult",
    "merge_shards",
    "ResultCache",
    "code_fingerprint",
    "MAX_RUNS",
    "run_campaign",
    "execute_spec",
    "default_workers",
    "check_run_options",
    "CampaignRequest",
    "MAX_RETRIES",
    "MAX_WORKERS",
    "WarmPool",
    "get_warm_pool",
    "shutdown_warm_pools",
    "scenario",
    "resolve_scenario",
    "scenario_names",
]
