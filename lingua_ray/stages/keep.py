"""Keep/drop decision, stateless ``map_batches`` fn.

keep = language detected (not "un")
     ∧ quality_flags == 0
     ∧ ppl ≤ threshold (NaN fails)
     ∧ tox_count == 0

A pure function of the columns produced by the langid / quality / scrub
stages, so the decision is deterministic per turn regardless of batching or
partitioning.  The two terms that do not depend on the language
(``quality_flags == 0 ∧ tox_count == 0``) are defined once, in
:func:`passes_language_independent_checks`, which the keep_only pipeline also
uses to drop turns before language ID.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .util import set_column

# Calibrated to ~p99.9 of the char-trigram perplexity distribution on the
# synthetic transcript mix (median ≈ 7.6, p99 ≈ 21): drops only pathological
# outliers while keeping ordinary text of every supported language.
DEFAULT_PPL_THRESHOLD = 30.0


def passes_language_independent_checks(batch: pa.Table) -> np.ndarray:
    """Bool mask of the keep terms that need no language ID:
    ``quality_flags == 0 ∧ tox_count == 0`` (columns of the quality and
    scrub stages)."""
    flags = batch.column("quality_flags").to_numpy()
    tox = batch.column("tox_count").to_numpy()
    return (flags == 0) & (tox == 0)


def keep_batch(batch: pa.Table,
               ppl_threshold: float = DEFAULT_PPL_THRESHOLD) -> pa.Table:
    lang_ok = pc.not_equal(pc.fill_null(batch.column("lang"), "un"), "un") \
        .to_numpy(zero_copy_only=False)
    ppl = batch.column("ppl").to_numpy()
    keep = (
        lang_ok
        & passes_language_independent_checks(batch)
        & (np.nan_to_num(ppl, nan=np.inf) <= ppl_threshold)
    )
    return set_column(batch, "keep", pa.array(keep, type=pa.bool_()))


def drop_language_independent_failures(batch: pa.Table) -> pa.Table:
    """Rows passing :func:`passes_language_independent_checks` — the
    keep_only pipeline's filter before language ID.  Every dropped row
    would get ``keep = False``."""
    return batch.filter(pa.array(passes_language_independent_checks(batch)))


def drop_unkept(batch: pa.Table) -> pa.Table:
    """Rows with ``keep`` true — the keep_only pipeline's last stage."""
    return batch.filter(batch.column("keep"))
