//! The mid-tier function cache (§5.5).
//!
//! "The ALDSP mid-tier cache can be thought of as a persistent,
//! distributed map that maps a function and a set of argument values to
//! the corresponding function result." Caching is opt-in per data-service
//! function (the designer allows it; an administrator enables it with a
//! TTL). On a hit the cached result is returned; on a miss the call runs
//! and its result is cached. It is a *function* cache, not a queryable
//! materialized view — appropriate for turning high-latency service
//! calls into lookups.
//!
//! The paper's implementation persists the map in a relational database
//! shared by an ALDSP cluster; this reproduction keeps the same
//! map-with-TTL semantics in process memory (the distribution mechanics
//! are orthogonal to query processing — see DESIGN.md).
//!
//! Internally the map is **sharded**: entries are spread over
//! [`SHARD_COUNT`] independently locked shards selected by a 64-bit hash
//! of the function name and argument values, so concurrent queries
//! hitting different cache keys don't serialize on one global lock. The
//! hash streams the arguments' key text (`xml::write_key`) into the
//! hasher without building it; the key itself is built only when a
//! shard bucket must be checked for hash collisions. Each shard is
//! capacity-bounded with stale-first eviction.

use aldsp_xdm::item::Sequence;
use aldsp_xdm::xml::{write_key, XmlSink};
use aldsp_xdm::QName;
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Number of independently locked shards (a power of two).
const SHARD_COUNT: usize = 16;

/// Default total capacity (entries across all shards).
const DEFAULT_CAPACITY: usize = 4096;

/// One cached function result.
struct Entry {
    /// Full serialized key — verified on lookup so hash collisions can
    /// never alias two different calls.
    key: String,
    value: Sequence,
    /// Insertion time, compared against the function's *current* TTL on
    /// lookup (so an administrator shortening a TTL takes effect on
    /// existing entries immediately).
    at: Instant,
    /// Expiry under the TTL in force at insertion; used for stale-first
    /// eviction when a shard fills.
    expires: Instant,
}

#[derive(Default)]
struct Shard {
    /// Hash → collision chain.
    entries: HashMap<u64, Vec<Entry>>,
    len: usize,
}

impl Shard {
    /// Bring the shard back within `capacity`: drop expired entries
    /// first, then the oldest live ones.
    fn evict(&mut self, now: Instant, capacity: usize) {
        self.entries.retain(|_, bucket| {
            bucket.retain(|e| e.expires > now);
            !bucket.is_empty()
        });
        self.len = self.entries.values().map(Vec::len).sum();
        while self.len > capacity {
            let oldest = self
                .entries
                .iter()
                .flat_map(|(&h, bucket)| bucket.iter().enumerate().map(move |(i, e)| (h, i, e.at)))
                .min_by_key(|&(_, _, at)| at)
                .map(|(h, i, _)| (h, i));
            let Some((h, i)) = oldest else { break };
            let bucket = self.entries.get_mut(&h).expect("bucket of found entry");
            bucket.swap_remove(i);
            if bucket.is_empty() {
                self.entries.remove(&h);
            }
            self.len -= 1;
        }
    }
}

/// TTL-based, sharded cache of data-service function results.
pub struct FunctionCache {
    policies: RwLock<HashMap<QName, Duration>>,
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
}

impl Default for FunctionCache {
    fn default() -> FunctionCache {
        FunctionCache::new()
    }
}

impl FunctionCache {
    /// An empty cache with no functions enabled.
    pub fn new() -> FunctionCache {
        FunctionCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty cache bounded to roughly `capacity` total entries.
    pub fn with_capacity(capacity: usize) -> FunctionCache {
        FunctionCache {
            policies: RwLock::new(HashMap::new()),
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            shard_capacity: (capacity / SHARD_COUNT).max(1),
        }
    }

    /// Administratively enable caching for `function` with the given TTL
    /// (the designer-permits / admin-enables split of §5.5 is collapsed
    /// into this one call).
    pub fn enable(&self, function: QName, ttl: Duration) {
        self.policies.write().insert(function, ttl);
    }

    /// Disable caching for a function (existing entries lapse naturally).
    pub fn disable(&self, function: &QName) {
        self.policies.write().remove(function);
    }

    /// Drop every cached entry for one function across all shards,
    /// returning how many were removed. Unlike [`FunctionCache::disable`]
    /// this evicts eagerly — the next call recomputes even if the policy
    /// stays enabled.
    pub fn purge(&self, function: &QName) -> usize {
        let lexical = function.lexical();
        let prefix = format!("{lexical}\u{1}");
        let mut removed = 0usize;
        for shard in &self.shards {
            let mut s = shard.lock();
            s.entries.retain(|_, bucket| {
                bucket.retain(|e| {
                    let gone = e.key == lexical || e.key.starts_with(&prefix);
                    removed += gone as usize;
                    !gone
                });
                !bucket.is_empty()
            });
            s.len = s.entries.values().map(Vec::len).sum();
        }
        removed
    }

    /// Is caching enabled for this function?
    pub fn enabled(&self, function: &QName) -> bool {
        self.policies.read().contains_key(function)
    }

    /// The shard-selection / bucket hash: function name plus the
    /// arguments' key text, streamed into the hasher unbuilt.
    fn hash_key(function: &QName, args: &[Sequence]) -> u64 {
        let mut h = DefaultHasher::new();
        function.hash(&mut h);
        write_key(args, &mut HashSink(&mut h));
        h.finish()
    }

    /// The full cache key: function name plus the arguments' key text.
    /// Built only for collision verification on a hash match.
    fn key(function: &QName, args: &[Sequence]) -> String {
        let mut k = function.lexical();
        write_key(args, &mut k);
        k
    }

    fn shard(&self, hash: u64) -> &Mutex<Shard> {
        &self.shards[(hash as usize) % SHARD_COUNT]
    }

    /// Look up a non-stale entry (one shard lock acquisition).
    pub fn get(&self, function: &QName, args: &[Sequence]) -> Option<Sequence> {
        let ttl = *self.policies.read().get(function)?;
        let hash = Self::hash_key(function, args);
        let mut shard = self.shard(hash).lock();
        let bucket = shard.entries.get_mut(&hash)?;
        // a populated bucket exists: now (and only now) serialize the
        // arguments to rule out a hash collision
        let key = Self::key(function, args);
        let idx = bucket.iter().position(|e| e.key == key)?;
        if bucket[idx].at.elapsed() < ttl {
            return Some(bucket[idx].value.clone());
        }
        // stale: evict on lookup
        bucket.swap_remove(idx);
        let empty = bucket.is_empty();
        if empty {
            shard.entries.remove(&hash);
        }
        shard.len -= 1;
        None
    }

    /// Store a result (no-op when the function isn't cache-enabled).
    /// Reads the TTL once and inserts under the owning shard's lock in a
    /// single pass; when no policy exists, no key is ever constructed.
    pub fn put(&self, function: &QName, args: &[Sequence], value: Sequence) {
        let Some(ttl) = self.policies.read().get(function).copied() else {
            return;
        };
        let hash = Self::hash_key(function, args);
        let key = Self::key(function, args);
        let now = Instant::now();
        let mut shard = self.shard(hash).lock();
        let bucket = shard.entries.entry(hash).or_default();
        if let Some(e) = bucket.iter_mut().find(|e| e.key == key) {
            e.value = value;
            e.at = now;
            e.expires = now + ttl;
            return;
        }
        bucket.push(Entry {
            key,
            value,
            at: now,
            expires: now + ttl,
        });
        shard.len += 1;
        if shard.len > self.shard_capacity {
            shard.evict(now, self.shard_capacity);
        }
    }

    /// Drop every entry (administrative flush).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock();
            s.entries.clear();
            s.len = 0;
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Streams key text into a [`Hasher`] without building it.
struct HashSink<'a, H: Hasher>(&'a mut H);

impl<H: Hasher> XmlSink for HashSink<'_, H> {
    fn push_str(&mut self, s: &str) {
        self.0.write(s.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aldsp_xdm::item::Item;

    fn f() -> QName {
        QName::new("urn:ws", "getRating")
    }

    #[test]
    fn miss_put_hit() {
        let c = FunctionCache::new();
        c.enable(f(), Duration::from_secs(60));
        let args = vec![vec![Item::str("Jones")]];
        assert!(c.get(&f(), &args).is_none());
        c.put(&f(), &args, vec![Item::int(700)]);
        assert_eq!(c.get(&f(), &args), Some(vec![Item::int(700)]));
        // different args are a different entry
        assert!(c.get(&f(), &[vec![Item::str("Smith")]]).is_none());
    }

    #[test]
    fn arguments_that_serialize_alike_are_distinct_entries() {
        let c = FunctionCache::new();
        c.enable(f(), Duration::from_secs(60));
        let pair = vec![vec![Item::str("a"), Item::str("b")]];
        let spaced = vec![vec![Item::str("a b")]];
        c.put(&f(), &pair, vec![Item::int(2)]);
        assert!(c.get(&f(), &spaced).is_none());
        assert!(c.get(&f(), &[vec![Item::int(1)]]).is_none());
        c.put(&f(), &[vec![Item::str("1")]], vec![Item::int(1)]);
        assert!(c.get(&f(), &[vec![Item::int(1)]]).is_none());
        assert_eq!(c.get(&f(), &pair), Some(vec![Item::int(2)]));
    }

    #[test]
    fn disabled_functions_never_cache() {
        let c = FunctionCache::new();
        let args = vec![vec![Item::int(1)]];
        c.put(&f(), &args, vec![Item::int(2)]);
        assert!(c.get(&f(), &args).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn ttl_expiry() {
        let c = FunctionCache::new();
        c.enable(f(), Duration::from_millis(10));
        let args = vec![vec![Item::int(1)]];
        c.put(&f(), &args, vec![Item::int(2)]);
        assert!(c.get(&f(), &args).is_some());
        std::thread::sleep(Duration::from_millis(15));
        assert!(c.get(&f(), &args).is_none(), "stale entry must miss");
        assert!(c.is_empty(), "stale entry evicted on lookup");
    }

    #[test]
    fn clear_and_disable() {
        let c = FunctionCache::new();
        c.enable(f(), Duration::from_secs(60));
        c.put(&f(), &[], vec![Item::int(1)]);
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
        c.disable(&f());
        assert!(!c.enabled(&f()));
    }

    #[test]
    fn purge_drops_only_the_named_function() {
        let c = FunctionCache::new();
        let g = QName::new("urn:ws", "getRatingHistory");
        c.enable(f(), Duration::from_secs(60));
        c.enable(g.clone(), Duration::from_secs(60));
        c.put(&f(), &[], vec![Item::int(1)]);
        c.put(&f(), &[vec![Item::str("Jones")]], vec![Item::int(2)]);
        // a name sharing `f`'s lexical form as a prefix must survive
        c.put(&g, &[vec![Item::str("Jones")]], vec![Item::int(3)]);
        assert_eq!(c.purge(&f()), 2);
        assert!(c.get(&f(), &[]).is_none());
        assert!(c.get(&f(), &[vec![Item::str("Jones")]]).is_none());
        assert_eq!(
            c.get(&g, &[vec![Item::str("Jones")]]),
            Some(vec![Item::int(3)])
        );
        // the policy survives a purge: the next call re-caches
        assert!(c.enabled(&f()));
        c.put(&f(), &[], vec![Item::int(9)]);
        assert_eq!(c.get(&f(), &[]), Some(vec![Item::int(9)]));
    }

    #[test]
    fn purge_of_unknown_function_is_a_noop() {
        let c = FunctionCache::new();
        c.enable(f(), Duration::from_secs(60));
        c.put(&f(), &[], vec![Item::int(1)]);
        assert_eq!(c.purge(&QName::new("urn:ws", "other")), 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn put_replaces_existing_entry() {
        let c = FunctionCache::new();
        c.enable(f(), Duration::from_secs(60));
        let args = vec![vec![Item::int(9)]];
        c.put(&f(), &args, vec![Item::int(1)]);
        c.put(&f(), &args, vec![Item::int(2)]);
        assert_eq!(c.len(), 1, "same key must replace, not duplicate");
        assert_eq!(c.get(&f(), &args), Some(vec![Item::int(2)]));
    }

    #[test]
    fn capacity_bound_evicts_stale_then_oldest() {
        let c = FunctionCache::with_capacity(SHARD_COUNT); // 1 per shard
        c.enable(f(), Duration::from_secs(60));
        // overfill: every insert beyond a shard's capacity evicts that
        // shard's oldest entry, so the total stays bounded
        for i in 0..200 {
            c.put(&f(), &[vec![Item::int(i)]], vec![Item::int(i)]);
        }
        assert!(
            c.len() <= SHARD_COUNT,
            "capacity bound exceeded: {}",
            c.len()
        );
    }

    #[test]
    fn distinct_args_spread_over_shards() {
        let c = FunctionCache::new();
        c.enable(f(), Duration::from_secs(60));
        for i in 0..64 {
            c.put(&f(), &[vec![Item::int(i)]], vec![Item::int(i * 10)]);
        }
        assert_eq!(c.len(), 64);
        for i in 0..64 {
            assert_eq!(
                c.get(&f(), &[vec![Item::int(i)]]),
                Some(vec![Item::int(i * 10)]),
                "entry {i} lost or aliased"
            );
        }
    }
}
