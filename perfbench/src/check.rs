//! Output oracles: what every reply must equal, computed before the
//! timed window so the check itself stays cheap.

use memcom_core::EmbeddingCompressor;
use memcom_serve::{InferBackend, InferScratch, RankNetBackend, ShardedStore};

use crate::stats::{fingerprint, fold_fingerprints, max_abs_diff};

/// Expected rows for every id of a lookup table: the fingerprint of
/// `ShardedStore::get` on the served snapshot, and how far that row is
/// from the fp32 source row.
pub struct RowOracle {
    dim: usize,
    fp: Vec<u64>,
    err: Vec<f32>,
}

impl RowOracle {
    pub fn build(served: &ShardedStore, emb: &dyn EmbeddingCompressor) -> RowOracle {
        let dim = served.dim();
        let vocab = served.vocab();
        let mut fp = Vec::with_capacity(vocab);
        let mut err = Vec::with_capacity(vocab);
        let ids: Vec<usize> = (0..vocab).collect();
        for chunk in ids.chunks(4096) {
            let exact = emb.lookup(chunk).expect("fp32 rows");
            for (&id, want) in chunk.iter().zip(exact.as_slice().chunks_exact(dim)) {
                let row = served.get(id).expect("id in vocabulary");
                fp.push(fingerprint(&row));
                err.push(max_abs_diff(&row, want) as f32);
            }
        }
        RowOracle { dim, fp, err }
    }

    /// The fingerprint a reply holding exactly the served rows of `ids`,
    /// in order, must have, and the largest distance of those rows from
    /// fp32.
    pub fn expected_reply(&self, ids: &[usize]) -> (u64, f64) {
        let fp = fold_fingerprints(ids.iter().map(|&id| self.fp[id]));
        let err = ids.iter().map(|&id| self.err[id]).fold(0f32, f32::max);
        (fp, f64::from(err))
    }

    /// Checks that `data` holds exactly the served rows of `ids`, in
    /// order; returns the largest distance of those rows from fp32.
    pub fn check(&self, ids: &[usize], data: &[f32]) -> Result<f64, String> {
        if data.len() != ids.len() * self.dim {
            return Err(format!(
                "reply holds {} values for {} rows of dim {}",
                data.len(),
                ids.len(),
                self.dim
            ));
        }
        let mut worst = 0f32;
        for (&id, row) in ids.iter().zip(data.chunks_exact(self.dim)) {
            if fingerprint(row) != self.fp[id] {
                return Err(format!("row for id {id} differs from the served snapshot"));
            }
            worst = worst.max(self.err[id]);
        }
        Ok(f64::from(worst))
    }
}

/// Expected scores for a fixed pool of score requests: the same head
/// run directly over exact fp32 rows, no router and no wire.
pub struct ScoreOracle {
    pub pool: Vec<Vec<usize>>,
    expected: Vec<Vec<f32>>,
    /// `RankNetBackend::score_error_bound` of the served int8 store.
    pub bound: f64,
}

impl ScoreOracle {
    pub fn build(
        pool: Vec<Vec<usize>>,
        backend: &RankNetBackend,
        emb: &dyn EmbeddingCompressor,
        served: &ShardedStore,
    ) -> ScoreOracle {
        let page_size = memcom_ondevice::mmap_sim::DEFAULT_PAGE_SIZE;
        let fp32 = ShardedStore::build(emb, 1, 0, page_size).expect("fp32 store builds");
        let mut scratch = InferScratch::new();
        let expected = pool
            .iter()
            .map(|ids| {
                let mut out = vec![0f32; backend.out_len(ids.len(), &fp32)];
                backend
                    .score_into(&fp32, ids, &mut scratch, &mut out)
                    .expect("fp32 forward");
                out
            })
            .collect();
        ScoreOracle {
            pool,
            expected,
            bound: f64::from(backend.score_error_bound(served)),
        }
    }

    /// Checks a reply for pool request `idx`; returns its largest
    /// distance from the fp32 forward.
    pub fn check(&self, idx: usize, data: &[f32]) -> Result<f64, String> {
        let want = &self.expected[idx];
        if data.len() != want.len() {
            return Err(format!(
                "score reply holds {} values, the head has {}",
                data.len(),
                want.len()
            ));
        }
        let err = max_abs_diff(data, want);
        if err.is_nan() || err > self.bound {
            return Err(format!(
                "score differs from the fp32 forward by {err:e}, bound {:e}",
                self.bound
            ));
        }
        Ok(err)
    }
}

/// Either oracle, by workload operation.
pub enum Oracle {
    Rows(RowOracle),
    Scores(ScoreOracle),
}
