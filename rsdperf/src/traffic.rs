//! Serving traffic: a built corpus replayed in global `(created, id)`
//! order, plus the properties a serving claim has to cite.

use rsd_dataset::Rsd15k;
use rsd_serve::IncomingPost;

use crate::stats::Fnv;

/// User and post ids of replay round `k` are shifted by `k` times these,
/// so a corpus smaller than the step size repeats as fresh users instead
/// of appending to (and reordering) the first round's timelines.
const ROUND_USER_STRIDE: u32 = 1 << 20;
const ROUND_POST_STRIDE: u32 = 1 << 24;

/// The replayed requests plus each one's annotated post label.
pub struct Traffic {
    /// Requests in submission order.
    pub posts: Vec<IncomingPost>,
    /// Annotated risk level (class index) of each request's post.
    pub labels: Vec<usize>,
}

impl Traffic {
    /// The first `n` requests of `dataset` replayed chronologically,
    /// repeated in rounds of remapped users when the corpus is smaller.
    pub fn replay(dataset: &Rsd15k, n: usize) -> Traffic {
        let mut order: Vec<usize> = (0..dataset.posts.len()).collect();
        order.sort_by_key(|&i| (dataset.posts[i].created, dataset.posts[i].id));
        assert!(!order.is_empty(), "cannot replay an empty corpus");
        let mut posts = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for (k, &i) in order.iter().cycle().take(n).enumerate() {
            let round = u32::try_from(k / order.len()).expect("round count fits u32");
            let p = &dataset.posts[i];
            let shift = |id: u32, stride: u32| {
                round
                    .checked_mul(stride)
                    .and_then(|s| id.checked_add(s))
                    .expect("replay rounds fit the id space")
            };
            posts.push(IncomingPost {
                user: shift(p.user.0, ROUND_USER_STRIDE),
                post: shift(p.id.0, ROUND_POST_STRIDE),
                created: p.created,
                text: p.text.clone(),
            });
            labels.push(p.label.index());
        }
        Traffic { posts, labels }
    }

    /// Digest of the request sequence: same seed, same digest.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for p in &self.posts {
            h.update(&p.user.to_le_bytes());
            h.update(&p.post.to_le_bytes());
            h.update(&p.created.0.to_le_bytes());
            h.update(p.text.as_bytes());
            h.update(&[0xff]);
        }
        h.0
    }

    /// Window and text properties of this traffic for a window of `w`.
    pub fn properties(&self, w: usize) -> TrafficProperties {
        use std::collections::HashMap;
        let mut seen: HashMap<u32, usize> = HashMap::new();
        let (mut ge2, mut window_sum, mut tokens) = (0usize, 0usize, 0usize);
        for p in &self.posts {
            let count = seen.entry(p.user).or_insert(0);
            *count += 1;
            let len = (*count).min(w);
            ge2 += usize::from(len >= 2);
            window_sum += len;
            tokens += p.text.split_whitespace().count();
        }
        let n = self.posts.len().max(1) as f64;
        TrafficProperties {
            window_len_ge2_share: ge2 as f64 / n,
            window_len_mean: window_sum as f64 / n,
            distinct_users: seen.len(),
            tokens_per_post_mean: tokens as f64 / n,
        }
    }
}

/// What a window-cache or tokenizer claim must cite about the traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficProperties {
    /// Share of requests whose window holds at least two posts.
    pub window_len_ge2_share: f64,
    /// Mean window length over requests.
    pub window_len_mean: f64,
    /// Distinct users in the traffic.
    pub distinct_users: usize,
    /// Mean whitespace tokens per post.
    pub tokens_per_post_mean: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsd_bench::Scale;
    use rsd_dataset::DatasetBuilder;

    fn corpus(seed: u64) -> Rsd15k {
        DatasetBuilder::new(Scale::Small.build_config(seed))
            .build()
            .expect("small build")
            .0
    }

    #[test]
    fn same_seed_same_traffic_other_seed_other_traffic() {
        let n = 200;
        let a = Traffic::replay(&corpus(1), n);
        let b = Traffic::replay(&corpus(1), n);
        let c = Traffic::replay(&corpus(2), n);
        assert_eq!(a.posts.len(), n);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn replay_is_chronological_and_repeats_as_fresh_users() {
        let dataset = corpus(2026);
        let n = dataset.posts.len() * 3;
        let traffic = Traffic::replay(&dataset, n);
        let round = dataset.posts.len();
        let first = &traffic.posts[..round];
        assert!(first
            .windows(2)
            .all(|w| (w[0].created, w[0].post) <= (w[1].created, w[1].post)));
        // Round 1 repeats round 0 under other user and post ids.
        for (a, b) in first.iter().zip(&traffic.posts[round..2 * round]) {
            assert_eq!((a.created, &a.text), (b.created, &b.text));
            assert_ne!(a.user, b.user);
            assert_ne!(a.post, b.post);
        }
        let props = traffic.properties(5);
        assert_eq!(props.distinct_users, 3 * dataset.n_users());
        assert!(props.window_len_mean >= 1.0 && props.window_len_mean <= 5.0);
        assert!((0.0..=1.0).contains(&props.window_len_ge2_share));
    }
}
