"""Property-based round-trip for the FLAC codec: any input the encoder
accepts must decode bit-exactly.  Hypothesis drives the values; the
deterministic encoder-oracle suite in test_flac_decode covers the
feature matrix."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=1500),
       st.sampled_from([256, 1024, 4096]),
       st.sampled_from(["fixed", "verbatim"]))
def test_flac_roundtrip_any_samples(samples, block, mode):
    from lingua_ray.stages.flac import decode_flac, encode_flac

    s = np.asarray(samples, dtype=np.int64)
    p = encode_flac(s, 8000, bps=16, block_size=block, mode=mode)
    sr, nch, dec = decode_flac(p)
    assert (sr, nch) == (8000, 1)
    np.testing.assert_array_equal(
        np.round(dec * 32768).astype(np.int64), s)
