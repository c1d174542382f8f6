//! Deep-copy marshaling sizes.
//!
//! DCOM transports arguments between machines by *deep copy*: every string,
//! array, and structure reachable from a parameter is serialized into the
//! request or reply packet. Coign's profiling informer measures exactly this
//! quantity — the number of bytes that would cross the wire if the two
//! communicating components were on different machines.
//!
//! The size rules below follow NDR (Network Data Representation)
//! conventions approximately: fixed scalars, length-prefixed conformant
//! strings and arrays, and a fixed-size `OBJREF` for marshaled interface
//! pointers. Exact byte-parity with MS-NDR is *not* required for the
//! reproduction — only that sizes are deterministic, monotone in payload
//! size, and identical between the profiling measurement and the distributed
//! execution (which they are, because both call this module).

use coign_com::idl::MethodDesc;
use coign_com::{ComError, ComResult, FxHashMap, Iid, Message, Value};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes of an `OBJREF` — the wire form of a marshaled interface pointer.
pub const OBJREF_SIZE: u64 = 68;

/// Fixed per-message DCOM/RPC header (`ORPCTHIS` / `ORPCTHAT` plus DCE
/// common header).
pub const MESSAGE_HEADER: u64 = 56;

/// Wire size of one value under deep-copy semantics.
///
/// Returns an error naming the offending component if the value contains a
/// non-remotable (opaque) pointer.
pub fn value_size(value: &Value) -> Result<u64, String> {
    match value {
        Value::I4(_) | Value::Bool(_) => Ok(4),
        Value::I8(_) | Value::F8(_) => Ok(8),
        // Conformant BSTR: 8-byte header + UTF-16 payload.
        Value::Str(s) => Ok(8 + 2 * s.chars().count() as u64),
        // Conformant byte array: 8-byte header + payload.
        Value::Blob(n) => Ok(8 + n),
        Value::Array(items) => {
            let mut total = 12; // conformance + offset + count
            for item in items {
                total += value_size(item)?;
            }
            Ok(total)
        }
        Value::Struct(fields) => {
            let mut total = 8; // alignment/embedding overhead
            for field in fields {
                total += value_size(field)?;
            }
            Ok(total)
        }
        Value::Interface(Some(_)) => Ok(OBJREF_SIZE),
        Value::Interface(None) | Value::Null => Ok(4), // NULL pointer marker
        Value::Opaque(tok) => Err(format!("opaque pointer 0x{tok:x} cannot be marshaled")),
    }
}

fn directional_size(method: &MethodDesc, msg: &Message, want_request: bool) -> ComResult<u64> {
    let mut total = MESSAGE_HEADER;
    for (idx, param) in method.params.iter().enumerate() {
        let travels = if want_request {
            param.dir.in_request()
        } else {
            param.dir.in_reply()
        };
        if !travels {
            continue;
        }
        let value = msg.arg(idx).unwrap_or(&Value::Null);
        total += value_size(value).map_err(|detail| ComError::NotRemotable {
            iid: coign_com::Iid(coign_com::Guid::NULL),
            detail: format!("{} param `{}`: {detail}", method.name, param.name),
        })?;
    }
    Ok(total)
}

/// Wire size of the request message (`[in]` and `[in, out]` parameters).
pub fn message_request_size(method: &MethodDesc, msg: &Message) -> ComResult<u64> {
    directional_size(method, msg, true)
}

/// Wire size of the reply message (`[out]` and `[in, out]` parameters).
pub fn message_reply_size(method: &MethodDesc, msg: &Message) -> ComResult<u64> {
    directional_size(method, msg, false)
}

// --- Marshal-size memoization ------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix(h: &mut u64, v: u64) {
    for byte in v.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Folds the structural *shape* of a value into the hash: type tags plus
/// the only quantities [`value_size`] depends on (string char counts, blob
/// lengths, container arities). Returns `false` on an opaque pointer —
/// sizing it errors, so such trees are never cached.
fn shape_hash(h: &mut u64, value: &Value) -> bool {
    match value {
        Value::I4(_) => mix(h, 1),
        Value::I8(_) => mix(h, 2),
        Value::F8(_) => mix(h, 3),
        Value::Bool(_) => mix(h, 4),
        Value::Str(s) => {
            mix(h, 5);
            mix(h, s.chars().count() as u64);
        }
        Value::Blob(n) => {
            mix(h, 6);
            mix(h, *n);
        }
        Value::Array(items) => {
            mix(h, 7);
            mix(h, items.len() as u64);
            return items.iter().all(|item| shape_hash(h, item));
        }
        Value::Struct(fields) => {
            mix(h, 8);
            mix(h, fields.len() as u64);
            return fields.iter().all(|field| shape_hash(h, field));
        }
        Value::Interface(Some(_)) => mix(h, 9),
        Value::Interface(None) => mix(h, 10),
        Value::Null => mix(h, 11),
        Value::Opaque(_) => return false,
    }
    true
}

/// FNV-1a fingerprint of the shapes of every argument traveling in the
/// given direction, or `None` if the tree contains an opaque pointer.
fn directional_fingerprint(method: &MethodDesc, msg: &Message, want_request: bool) -> Option<u64> {
    let mut h = FNV_OFFSET;
    for (idx, param) in method.params.iter().enumerate() {
        let travels = if want_request {
            param.dir.in_request()
        } else {
            param.dir.in_reply()
        };
        if !travels {
            continue;
        }
        mix(&mut h, idx as u64);
        if !shape_hash(&mut h, msg.arg(idx).unwrap_or(&Value::Null)) {
            return None;
        }
    }
    Some(h)
}

/// Memoizes deep-copy message sizes by `(iid, method, direction,
/// value-shape fingerprint)`.
///
/// [`value_size`] is a pure function of a value's shape — the type tags,
/// string/blob lengths, and container arities hashed by the fingerprint —
/// so two structurally identical argument trees always marshal to the same
/// number of bytes and the recursive walk can be skipped on a repeat.
/// Request and reply shapes are fingerprinted independently (a stateful
/// component may answer identical requests with different replies, so the
/// reply is hashed *after* the call under its own direction key).
///
/// Trees containing opaque pointers never enter the cache: sizing them is
/// the non-remotable error path and must re-fire every time.
#[derive(Debug, Default)]
pub struct SizeCache {
    map: Mutex<FxHashMap<(Iid, u32, bool, u64), u64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SizeCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        SizeCache::default()
    }

    /// Calls served from the cache (the deep-copy walk was skipped).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Calls that had to perform the full deep-copy walk.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Absorbs the hit/miss counters into a metrics registry.
    pub fn record_metrics(&self, registry: &coign_obs::Registry) {
        registry
            .counter("coign_marshal_cache_hits_total")
            .add(self.hits());
        registry
            .counter("coign_marshal_cache_misses_total")
            .add(self.misses());
    }

    /// Request size through the cache; the flag reports a cache hit.
    pub fn request_size(
        &self,
        iid: Iid,
        method_index: u32,
        method: &MethodDesc,
        msg: &Message,
    ) -> (ComResult<u64>, bool) {
        self.sized(iid, method_index, method, msg, true)
    }

    /// Reply size through the cache; the flag reports a cache hit.
    pub fn reply_size(
        &self,
        iid: Iid,
        method_index: u32,
        method: &MethodDesc,
        msg: &Message,
    ) -> (ComResult<u64>, bool) {
        self.sized(iid, method_index, method, msg, false)
    }

    fn sized(
        &self,
        iid: Iid,
        method_index: u32,
        method: &MethodDesc,
        msg: &Message,
        want_request: bool,
    ) -> (ComResult<u64>, bool) {
        let Some(shape) = directional_fingerprint(method, msg, want_request) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return (directional_size(method, msg, want_request), false);
        };
        let key = (iid, method_index, want_request, shape);
        if let Some(&size) = self.map.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Ok(size), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let result = directional_size(method, msg, want_request);
        if let Ok(size) = result {
            self.map.lock().insert(key, size);
        }
        (result, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coign_com::idl::{InterfaceBuilder, ParamDesc, ParamDir};
    use coign_com::PType;

    #[test]
    fn scalar_sizes() {
        assert_eq!(value_size(&Value::I4(1)).unwrap(), 4);
        assert_eq!(value_size(&Value::I8(1)).unwrap(), 8);
        assert_eq!(value_size(&Value::F8(1.0)).unwrap(), 8);
        assert_eq!(value_size(&Value::Bool(true)).unwrap(), 4);
        assert_eq!(value_size(&Value::Null).unwrap(), 4);
    }

    #[test]
    fn string_size_is_utf16() {
        assert_eq!(value_size(&Value::Str("abc".into())).unwrap(), 8 + 6);
        assert_eq!(value_size(&Value::Str("".into())).unwrap(), 8);
    }

    #[test]
    fn blob_size_tracks_payload() {
        assert_eq!(value_size(&Value::Blob(1_000_000)).unwrap(), 8 + 1_000_000);
    }

    #[test]
    fn deep_copy_recurses() {
        let v = Value::Struct(vec![
            Value::I4(1),
            Value::Array(vec![Value::Blob(100), Value::Blob(200)]),
        ]);
        // struct(8) + i4(4) + array(12) + blob(108) + blob(208)
        assert_eq!(value_size(&v).unwrap(), 8 + 4 + 12 + 108 + 208);
    }

    #[test]
    fn interface_pointers_marshal_as_objref() {
        assert_eq!(value_size(&Value::Interface(None)).unwrap(), 4);
        // A present interface pointer needs a live runtime to build (the
        // OBJREF path is exercised by the integration tests); a null
        // pointer inside a struct still marshals as a 4-byte marker.
        let nested = Value::Struct(vec![Value::Interface(None)]);
        assert_eq!(value_size(&nested).unwrap(), 8 + 4);
    }

    #[test]
    fn opaque_pointers_are_not_remotable() {
        let err = value_size(&Value::Opaque(0xdead)).unwrap_err();
        assert!(err.contains("cannot be marshaled"));
        // Even nested inside a struct.
        let nested = Value::Struct(vec![Value::I4(1), Value::Opaque(1)]);
        assert!(value_size(&nested).is_err());
    }

    fn rw_method() -> MethodDesc {
        MethodDesc::new(
            "ReadWrite",
            vec![
                ParamDesc::new("key", ParamDir::In, PType::Str),
                ParamDesc::new("buf", ParamDir::InOut, PType::Blob),
                ParamDesc::new("status", ParamDir::Out, PType::I4),
            ],
        )
    }

    #[test]
    fn request_counts_in_and_inout() {
        let m = rw_method();
        let msg = Message::new(vec![Value::Str("ab".into()), Value::Blob(100), Value::Null]);
        let req = message_request_size(&m, &msg).unwrap();
        // header + str(8+4) + blob(108); the out param does not travel.
        assert_eq!(req, MESSAGE_HEADER + 12 + 108);
    }

    #[test]
    fn reply_counts_out_and_inout() {
        let m = rw_method();
        let msg = Message::new(vec![
            Value::Str("ab".into()),
            Value::Blob(100),
            Value::I4(0),
        ]);
        let reply = message_reply_size(&m, &msg).unwrap();
        // header + blob(108) + i4(4); the in param does not travel back.
        assert_eq!(reply, MESSAGE_HEADER + 108 + 4);
    }

    #[test]
    fn missing_args_count_as_null() {
        let m = rw_method();
        let msg = Message::empty();
        let req = message_request_size(&m, &msg).unwrap();
        assert_eq!(req, MESSAGE_HEADER + 4 + 4); // two null markers
    }

    #[test]
    fn size_cache_hits_on_identical_shapes_only() {
        let m = rw_method();
        let iid = Iid(coign_com::Guid::NULL);
        let cache = SizeCache::new();

        let msg = Message::new(vec![Value::Str("ab".into()), Value::Blob(100), Value::Null]);
        let (size, hit) = cache.request_size(iid, 0, &m, &msg);
        assert_eq!(size.unwrap(), MESSAGE_HEADER + 12 + 108);
        assert!(!hit);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        // Same shape, different content: a hit with the same size.
        let same_shape = Message::new(vec![Value::Str("xy".into()), Value::Blob(100), Value::Null]);
        let (size, hit) = cache.request_size(iid, 0, &m, &same_shape);
        assert_eq!(size.unwrap(), MESSAGE_HEADER + 12 + 108);
        assert!(hit);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        // A different blob length is a different shape: a miss.
        let grown = Message::new(vec![Value::Str("ab".into()), Value::Blob(101), Value::Null]);
        let (size, hit) = cache.request_size(iid, 0, &m, &grown);
        assert_eq!(size.unwrap(), MESSAGE_HEADER + 12 + 109);
        assert!(!hit);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn size_cache_keys_directions_independently() {
        let m = rw_method();
        let iid = Iid(coign_com::Guid::NULL);
        let cache = SizeCache::new();
        let msg = Message::new(vec![
            Value::Str("ab".into()),
            Value::Blob(100),
            Value::I4(0),
        ]);
        // Request then reply of the same message: different directions,
        // both misses, correct (different) sizes.
        let (req, hit_req) = cache.request_size(iid, 0, &m, &msg);
        let (reply, hit_reply) = cache.reply_size(iid, 0, &m, &msg);
        assert!(!hit_req && !hit_reply);
        assert_eq!(req.unwrap(), MESSAGE_HEADER + 12 + 108);
        assert_eq!(reply.unwrap(), MESSAGE_HEADER + 108 + 4);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn size_cache_never_caches_opaque_trees() {
        let iface = InterfaceBuilder::new("ISharedCache")
            .method("Map", |m| m.input("handle", PType::Opaque))
            .build();
        let m = &iface.methods[0];
        let cache = SizeCache::new();
        let msg = Message::new(vec![Value::Opaque(7)]);
        for expected_misses in 1..=3 {
            let (size, hit) = cache.request_size(iface.iid, 0, m, &msg);
            assert!(size.is_err());
            assert!(!hit);
            assert_eq!((cache.hits(), cache.misses()), (0, expected_misses));
        }
    }

    #[test]
    fn opaque_param_fails_whole_message() {
        let iface = InterfaceBuilder::new("IShared")
            .method("Map", |m| m.input("handle", PType::Opaque))
            .build();
        let m = &iface.methods[0];
        let msg = Message::new(vec![Value::Opaque(7)]);
        assert!(matches!(
            message_request_size(m, &msg),
            Err(ComError::NotRemotable { .. })
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_remotable_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            any::<i32>().prop_map(Value::I4),
            any::<i64>().prop_map(Value::I8),
            any::<bool>().prop_map(Value::Bool),
            "[a-z]{0,16}".prop_map(Value::Str),
            (0u64..10_000).prop_map(Value::Blob),
            Just(Value::Null),
        ];
        leaf.prop_recursive(3, 32, 8, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
                proptest::collection::vec(inner, 0..6).prop_map(Value::Struct),
            ]
        })
    }

    proptest! {
        #[test]
        fn size_is_deterministic_and_positive(v in arb_remotable_value()) {
            let a = value_size(&v).unwrap();
            let b = value_size(&v).unwrap();
            prop_assert_eq!(a, b);
            prop_assert!(a >= 4);
        }

        #[test]
        fn bigger_blob_never_shrinks_message(n in 0u64..100_000, extra in 1u64..100_000) {
            let small = value_size(&Value::Blob(n)).unwrap();
            let large = value_size(&Value::Blob(n + extra)).unwrap();
            prop_assert!(large > small);
        }

        #[test]
        fn array_size_is_sum_of_elements_plus_header(
            items in proptest::collection::vec((0u64..1000).prop_map(Value::Blob), 0..10)
        ) {
            let parts: u64 = items.iter().map(|v| value_size(v).unwrap()).sum();
            let whole = value_size(&Value::Array(items)).unwrap();
            prop_assert_eq!(whole, parts + 12);
        }
    }

    use coign_com::idl::{MethodDesc, ParamDesc, ParamDir};
    use coign_com::PType;

    fn arb_dir() -> impl Strategy<Value = ParamDir> {
        prop_oneof![
            Just(ParamDir::In),
            Just(ParamDir::Out),
            Just(ParamDir::InOut),
        ]
    }

    /// A method signature together with a matching argument list, every
    /// parameter populated with an arbitrary remotable value tree.
    fn arb_call() -> impl Strategy<Value = (MethodDesc, Message)> {
        proptest::collection::vec((arb_dir(), arb_remotable_value()), 1..6).prop_map(|params| {
            let descs = params
                .iter()
                .enumerate()
                .map(|(i, (dir, _))| ParamDesc::new(&format!("p{i}"), *dir, PType::Blob))
                .collect();
            let args = params.into_iter().map(|(_, v)| v).collect();
            (MethodDesc::new("Probe", descs), Message::new(args))
        })
    }

    proptest! {
        #[test]
        fn message_sizes_are_deterministic_for_a_value_tree((m, msg) in arb_call()) {
            prop_assert_eq!(
                message_request_size(&m, &msg).unwrap(),
                message_request_size(&m, &msg).unwrap()
            );
            prop_assert_eq!(
                message_reply_size(&m, &msg).unwrap(),
                message_reply_size(&m, &msg).unwrap()
            );
        }

        #[test]
        fn cached_sizes_equal_uncached_sizes((m, msg) in arb_call()) {
            // The cache is an invisible optimization: for any call, sizes
            // through the cache (cold, then warm) match the direct walk.
            let iid = Iid(coign_com::Guid::NULL);
            let cache = SizeCache::new();
            for _ in 0..2 {
                let (req, _) = cache.request_size(iid, 0, &m, &msg);
                let (reply, _) = cache.reply_size(iid, 0, &m, &msg);
                prop_assert_eq!(req.unwrap(), message_request_size(&m, &msg).unwrap());
                prop_assert_eq!(reply.unwrap(), message_reply_size(&m, &msg).unwrap());
            }
            prop_assert!(cache.hits() >= 2);
        }

        #[test]
        fn message_sizes_never_zero_for_nonempty_param_lists((m, msg) in arb_call()) {
            // Even a direction no parameter travels in still carries the
            // RPC header, so sizes are never zero.
            prop_assert!(message_request_size(&m, &msg).unwrap() >= MESSAGE_HEADER);
            prop_assert!(message_reply_size(&m, &msg).unwrap() >= MESSAGE_HEADER);
        }

        #[test]
        fn message_sizes_are_monotone_in_payload(n in 0u64..50_000, extra in 1u64..50_000) {
            let m = MethodDesc::new(
                "Grow",
                vec![ParamDesc::new("buf", ParamDir::InOut, PType::Blob)],
            );
            let small = Message::new(vec![Value::Blob(n)]);
            let large = Message::new(vec![Value::Blob(n + extra)]);
            prop_assert!(
                message_request_size(&m, &large).unwrap()
                    > message_request_size(&m, &small).unwrap()
            );
            prop_assert!(
                message_reply_size(&m, &large).unwrap()
                    > message_reply_size(&m, &small).unwrap()
            );
        }

        #[test]
        fn growing_one_argument_never_shrinks_the_message(
            (m, msg) in arb_call(),
            grow in 1u64..10_000,
        ) {
            // Replace the first request-traveling argument with a larger
            // blob and check the request size does not decrease.
            if let Some(idx) = m.params.iter().position(|p| p.dir.in_request()) {
                let before = message_request_size(&m, &msg).unwrap();
                let base = value_size(msg.arg(idx).unwrap_or(&Value::Null)).unwrap();
                let mut args: Vec<Value> = (0..m.params.len())
                    .map(|i| msg.arg(i).unwrap_or(&Value::Null).clone())
                    .collect();
                args[idx] = Value::Blob(base + grow);
                let after = message_request_size(&m, &Message::new(args)).unwrap();
                prop_assert!(after > before);
            }
        }
    }
}
