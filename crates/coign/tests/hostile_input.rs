//! No-panic properties for the decoders that read untrusted input: an
//! application image handed to the CLI, the configuration record inside
//! it, a textual fault plan, and JSON re-imported from disk. On arbitrary input, and on random
//! edits of a valid encoding (which get past the magic checks and reach
//! deep into the decoder), each must return a value or an error — never
//! panic.

use coign::analysis::Distribution;
use coign::classifier::{ClassificationId, ClassifierKind, InstanceClassifier};
use coign::config::ConfigRecord;
use coign::IccProfile;
use coign_com::{AppImage, Clsid, Iid, MachineId};
use coign_dcom::FaultPlan;
use coign_obs::json::Json;
use proptest::prelude::*;

/// Up to eight byte-level edits: `(kind, position, byte)`, where kind 0
/// overwrites, 1 inserts, 2 removes and 3 truncates at the position.
fn edits() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    proptest::collection::vec((0u8..4, any::<usize>(), any::<u8>()), 1..8)
}

fn mutate(mut bytes: Vec<u8>, edits: &[(u8, usize, u8)]) -> Vec<u8> {
    for &(kind, pos, byte) in edits {
        let at = pos % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            _ => {}
        }
    }
    bytes
}

/// A realized record: classifier table, a profile with edges, instances
/// and a non-remotable pair, and a two-machine distribution.
fn valid_record() -> ConfigRecord {
    let (a, b) = (ClassificationId(1), ClassificationId(2));
    let iid = Iid::from_name("IHostile");
    let mut profile = IccProfile::new();
    profile.record_message(ClassificationId::ROOT, a, iid, 0, 64);
    profile.record_message(a, b, iid, 1, 70_000);
    profile.record_non_remotable(a, b);
    profile.record_instance(a, Clsid::from_name("Shell"));
    profile.record_instance(b, Clsid::from_name("Store"));
    profile.scenarios.push("hostile".to_string());
    let mut record =
        ConfigRecord::profiling(InstanceClassifier::new(ClassifierKind::Ifcb).encode());
    record.distribution = Some(Distribution {
        placement: [(a, MachineId::CLIENT), (b, MachineId::SERVER)].into(),
        predicted_comm_us: 12.5,
        network_name: "10BaseT Ethernet".to_string(),
    });
    record.profile = profile;
    record
}

fn valid_image() -> AppImage {
    let mut image = AppImage::new("hostile.exe", vec![Clsid::from_name("Shell")]);
    image.set_config_record(valid_record().encode());
    image
}

/// The characters JSON's grammar turns on, so random strings of them
/// exercise the parser past its first token.
const JSON_ALPHABET: &[u8] = b"[]{}:,\"0123456789eE.+-truefalsn\\ ";

fn json_tokens() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..JSON_ALPHABET.len(), 0..96).prop_map(|picks| {
        picks
            .iter()
            .map(|&i| char::from(JSON_ALPHABET[i]))
            .collect()
    })
}

const VALID_PLAN: &str = include_str!("../../../examples/faults/demo.fplan");

const VALID_JSON: &str = r#"{"traceEvents":[{"name":"run","ph":"B","ts":0,"args":{"n":-1.5e3,"s":"a\"\\é"}},null,true,false],"counters":{"coign_calls_total":18446744073709551615}}"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn app_image_decode_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        edits in edits(),
    ) {
        let _ = AppImage::decode(&bytes);
        let _ = AppImage::decode(&mutate(valid_image().encode(), &edits));
    }

    #[test]
    fn config_record_decode_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        edits in edits(),
    ) {
        let _ = ConfigRecord::decode(&bytes);
        let _ = ConfigRecord::decode(&mutate(valid_record().encode(), &edits));
    }

    #[test]
    fn fault_plan_parse_never_panics(
        text in ".{0,96}",
        edits in edits(),
    ) {
        let _ = FaultPlan::parse(&text);
        let mutated = mutate(VALID_PLAN.as_bytes().to_vec(), &edits);
        let _ = FaultPlan::parse(&String::from_utf8_lossy(&mutated));
    }

    #[test]
    fn json_parse_never_panics(
        text in ".{0,96}",
        tokens in json_tokens(),
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
        edits in edits(),
    ) {
        let _ = Json::parse(&text);
        let _ = Json::parse(&tokens);
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
        let mutated = mutate(VALID_JSON.as_bytes().to_vec(), &edits);
        let _ = Json::parse(&String::from_utf8_lossy(&mutated));
    }
}

#[test]
fn json_nesting_is_bounded_not_a_stack_overflow() {
    // The parser recurses per level; a hostile megabyte of `[` must fail
    // cleanly rather than overflow the stack.
    assert!(Json::parse(&"[".repeat(1 << 20)).is_err());
    let deepest = format!("{}{}", "[".repeat(256), "]".repeat(256));
    assert!(Json::parse(&deepest).is_ok());
    let too_deep = format!("{}{}", "[".repeat(257), "]".repeat(257));
    assert!(Json::parse(&too_deep).is_err());
}

#[test]
fn valid_encodings_round_trip() {
    // The mutation seeds are themselves valid, so the properties above
    // start from inputs the decoders accept.
    assert_eq!(
        ConfigRecord::decode(&valid_record().encode()).unwrap(),
        valid_record()
    );
    assert_eq!(
        AppImage::decode(&valid_image().encode()).unwrap().encode(),
        valid_image().encode()
    );
    assert!(FaultPlan::parse(VALID_PLAN).is_ok());
    assert!(Json::parse(VALID_JSON).is_ok());
}
