//! Skip-gram word embeddings with negative sampling.
//!
//! The paper's XGBoost baseline cites Ghosal & Jain's fastText + XGBoost
//! design ([19]); this module provides the equivalent self-trained dense
//! word representation: a word2vec-style skip-gram model with negative
//! sampling, trainable on the unannotated pool, plus document averaging
//! for downstream feature use. Pure Rust, deterministic, SGD-based.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::tokenize::tokenize;
use rsd_common::rng::{stream_rng, weighted_index};
use rsd_common::{Result, RsdError};

/// Skip-gram hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SkipGramConfig {
    /// Embedding width.
    pub dim: usize,
    /// Context window radius.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Epochs over the corpus.
    pub epochs: usize,
    /// Minimum token frequency to receive a vector.
    pub min_count: usize,
    /// Training seed.
    pub seed: u64,
}

impl Default for SkipGramConfig {
    fn default() -> Self {
        SkipGramConfig {
            dim: 32,
            window: 3,
            negatives: 5,
            lr: 0.025,
            epochs: 3,
            min_count: 2,
            seed: 0,
        }
    }
}

/// A trained embedding table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WordEmbeddings {
    dim: usize,
    vocab: HashMap<String, usize>,
    /// Input vectors, row per word.
    vectors: Vec<f32>,
}

impl WordEmbeddings {
    /// Train skip-gram embeddings on cleaned documents.
    pub fn train(docs: &[String], cfg: &SkipGramConfig) -> Result<WordEmbeddings> {
        if docs.is_empty() {
            return Err(RsdError::data("SkipGram: no documents"));
        }
        if cfg.dim == 0 || cfg.window == 0 {
            return Err(RsdError::config("dim/window", "must be positive"));
        }

        // Vocabulary and unigram counts.
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for doc in docs {
            for tok in tokenize(doc) {
                *counts.entry(tok).or_insert(0) += 1;
            }
        }
        let mut words: Vec<(&str, usize)> = counts
            .into_iter()
            .filter(|(_, c)| *c >= cfg.min_count.max(1))
            .collect();
        words.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        if words.is_empty() {
            return Err(RsdError::data("SkipGram: vocabulary empty after min_count"));
        }
        let vocab: HashMap<String, usize> = words
            .iter()
            .enumerate()
            .map(|(i, (w, _))| (w.to_string(), i))
            .collect();
        let v = vocab.len();

        // Negative-sampling distribution: unigram^0.75.
        let neg_weights: Vec<f64> = words.iter().map(|(_, c)| (*c as f64).powf(0.75)).collect();

        // Two tables, small random init.
        let mut rng: StdRng = stream_rng(cfg.seed, "skipgram.init");
        let mut input: Vec<f32> = (0..v * cfg.dim)
            .map(|_| (rng.gen::<f32>() - 0.5) / cfg.dim as f32)
            .collect();
        let mut output: Vec<f32> = vec![0.0; v * cfg.dim];

        // Pre-encode documents.
        let encoded: Vec<Vec<usize>> = docs
            .iter()
            .map(|d| {
                tokenize(d)
                    .into_iter()
                    .filter_map(|t| vocab.get(t).copied())
                    .collect()
            })
            .collect();

        let mut train_rng: StdRng = stream_rng(cfg.seed, "skipgram.train");
        for _epoch in 0..cfg.epochs {
            for doc in &encoded {
                for (pos, &center) in doc.iter().enumerate() {
                    let radius = 1 + (train_rng.gen::<usize>() % cfg.window);
                    let lo = pos.saturating_sub(radius);
                    let hi = (pos + radius + 1).min(doc.len());
                    // The window position is compared with `pos` as well
                    // as used to index the document.
                    #[allow(clippy::needless_range_loop)]
                    for ctx_pos in lo..hi {
                        if ctx_pos == pos {
                            continue;
                        }
                        let context = doc[ctx_pos];
                        // One positive + k negative updates.
                        sgd_pair(
                            &mut input,
                            &mut output,
                            center,
                            context,
                            1.0,
                            cfg.dim,
                            cfg.lr,
                        );
                        for _ in 0..cfg.negatives {
                            let neg = weighted_index(&mut train_rng, &neg_weights);
                            if neg == context {
                                continue;
                            }
                            sgd_pair(&mut input, &mut output, center, neg, 0.0, cfg.dim, cfg.lr);
                        }
                    }
                }
            }
        }

        Ok(WordEmbeddings {
            dim: cfg.dim,
            vocab,
            vectors: input,
        })
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Vector for a word, if in vocabulary.
    pub fn vector(&self, word: &str) -> Option<&[f32]> {
        self.vocab
            .get(word)
            .map(|&i| &self.vectors[i * self.dim..(i + 1) * self.dim])
    }

    /// Mean of the vectors of in-vocabulary tokens (zeros if none) — the
    /// fastText-style document representation used as model features.
    pub fn embed_document(&self, cleaned: &str) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim];
        let mut n = 0usize;
        for tok in tokenize(cleaned) {
            if let Some(v) = self.vector(tok) {
                for (o, &x) in out.iter_mut().zip(v) {
                    *o += x;
                }
                n += 1;
            }
        }
        if n > 0 {
            for o in &mut out {
                *o /= n as f32;
            }
        }
        out
    }

    /// Cosine similarity between two words' vectors (`None` if either is
    /// out of vocabulary).
    pub fn similarity(&self, a: &str, b: &str) -> Option<f32> {
        let va = self.vector(a)?;
        let vb = self.vector(b)?;
        let dot: f32 = va.iter().zip(vb).map(|(x, y)| x * y).sum();
        let na: f32 = va.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = vb.iter().map(|x| x * x).sum::<f32>().sqrt();
        if na == 0.0 || nb == 0.0 {
            return Some(0.0);
        }
        Some(dot / (na * nb))
    }
}

/// One positive/negative SGD step on a (center, target) pair.
fn sgd_pair(
    input: &mut [f32],
    output: &mut [f32],
    center: usize,
    target: usize,
    label: f32,
    dim: usize,
    lr: f32,
) {
    let ci = center * dim;
    let ti = target * dim;
    let mut dot = 0.0f32;
    for d in 0..dim {
        dot += input[ci + d] * output[ti + d];
    }
    let pred = 1.0 / (1.0 + (-dot).exp());
    let grad = (pred - label) * lr;
    for d in 0..dim {
        let gi = grad * output[ti + d];
        let go = grad * input[ci + d];
        input[ci + d] -= gi;
        output[ti + d] -= go;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy corpus with two disjoint topic clusters: {cat, dog, pet} and
    /// {stock, bond, market}. Words within a cluster co-occur; across
    /// clusters they never do.
    fn topic_corpus() -> Vec<String> {
        let mut docs = Vec::new();
        for _ in 0..120 {
            docs.push("the cat and dog are pet friends cat dog pet".to_string());
            docs.push("the stock and bond in market rise stock bond market".to_string());
        }
        docs
    }

    fn trained() -> WordEmbeddings {
        WordEmbeddings::train(
            &topic_corpus(),
            &SkipGramConfig {
                dim: 16,
                epochs: 4,
                seed: 7,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn within_cluster_similarity_exceeds_across() {
        let emb = trained();
        let same = emb.similarity("cat", "dog").unwrap();
        let cross = emb.similarity("cat", "bond").unwrap();
        assert!(
            same > cross + 0.2,
            "cat~dog {same} should exceed cat~bond {cross}"
        );
    }

    #[test]
    fn document_embedding_reflects_topic() {
        let emb = trained();
        let pet_doc = emb.embed_document("cat dog pet");
        let fin_doc = emb.embed_document("stock bond market");
        let cos = |a: &[f32], b: &[f32]| {
            let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
            dot / (na * nb)
        };
        let pet_doc2 = emb.embed_document("dog pet");
        assert!(cos(&pet_doc, &pet_doc2) > cos(&pet_doc, &fin_doc));
    }

    #[test]
    fn oov_handling() {
        let emb = trained();
        assert!(emb.vector("zebra").is_none());
        assert!(emb.similarity("cat", "zebra").is_none());
        let z = emb.embed_document("zebra quagga");
        assert!(z.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = trained();
        let b = trained();
        assert_eq!(a.vector("cat"), b.vector("cat"));
    }

    #[test]
    fn validation_errors() {
        assert!(WordEmbeddings::train(&[], &SkipGramConfig::default()).is_err());
        let docs = vec!["one two".to_string()];
        let cfg = SkipGramConfig {
            dim: 0,
            ..Default::default()
        };
        assert!(WordEmbeddings::train(&docs, &cfg).is_err());
        // min_count filters everything.
        let cfg = SkipGramConfig {
            min_count: 10,
            ..Default::default()
        };
        assert!(WordEmbeddings::train(&docs, &cfg).is_err());
    }

    #[test]
    fn min_count_respected() {
        let docs = vec!["common common common rare".to_string(); 3];
        let emb = WordEmbeddings::train(
            &docs,
            &SkipGramConfig {
                min_count: 5,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(emb.vector("common").is_some());
        assert!(emb.vector("rare").is_none());
    }
}
