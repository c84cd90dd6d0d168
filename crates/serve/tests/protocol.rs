//! Serde round-trips of every protocol message — both directions of the
//! wire format, via the exact `serde_json` path the server and client use —
//! plus the packed-words codec and the JSON string path under long and
//! hostile input.

use proptest::prelude::*;
use scratch_asm::KernelBuilder;
use scratch_serve::{
    pack_words, unpack_words, JobDone, PackedError, RejectReason, Rejection, Request, Response,
    StatsReply, SubmitRequest, TenantStats, TenantTop, TopReply,
};

fn tiny_kernel() -> scratch_asm::Kernel {
    let mut b = KernelBuilder::new("proto");
    b.vgprs(4).sgprs(24).workgroup_size(64);
    b.endpgm().unwrap();
    b.finish().unwrap()
}

fn roundtrip_request(req: &Request) {
    let line = serde_json::to_string(req).expect("serialize");
    assert!(!line.contains('\n'), "wire format must be one line");
    let back: Request = serde_json::from_str(&line).expect("deserialize");
    assert_eq!(*req, back, "request round-trip changed the message");
}

fn roundtrip_response(resp: &Response) {
    let line = serde_json::to_string(resp).expect("serialize");
    assert!(!line.contains('\n'), "wire format must be one line");
    let back: Response = serde_json::from_str(&line).expect("deserialize");
    assert_eq!(*resp, back, "response round-trip changed the message");
}

fn sample_submit() -> SubmitRequest {
    SubmitRequest {
        tenant: "acme".to_owned(),
        label: "job-1".to_owned(),
        kernel: tiny_kernel(),
        input: vec![1, 2, 3, 0xdead_beef],
        grid: [2, 1, 1],
        out_bytes: 16384,
        system: Some("dcdpm".to_owned()),
        return_output: true,
        exec: Some("cycle".to_owned()),
    }
}

#[test]
fn every_request_variant_round_trips() {
    roundtrip_request(&Request::Submit(sample_submit()));
    roundtrip_request(&Request::Submit(SubmitRequest {
        system: None, // the omittable fields, in their omitted state
        exec: None,
        input: Vec::new(),
        return_output: false,
        ..sample_submit()
    }));
    roundtrip_request(&Request::Stats);
    roundtrip_request(&Request::Ping);
    roundtrip_request(&Request::Drain);
    roundtrip_request(&Request::Cancel { job: 42 });
    roundtrip_request(&Request::Top);
}

#[test]
fn every_response_variant_round_trips() {
    roundtrip_response(&Response::Accepted { job: 42 });
    for reason in [
        RejectReason::RateLimited,
        RejectReason::TenantQueueFull,
        RejectReason::Overloaded,
        RejectReason::Draining,
        RejectReason::TooLarge,
        RejectReason::Invalid,
        RejectReason::IdleTimeout,
    ] {
        roundtrip_response(&Response::Rejected(Rejection {
            reason,
            tenant: "acme".to_owned(),
            retry_after_ms: (reason == RejectReason::RateLimited).then_some(125),
            message: format!("shed: {reason}"),
        }));
    }
    roundtrip_response(&Response::Done(JobDone {
        job: 42,
        tenant: "acme".to_owned(),
        label: "job-1".to_owned(),
        ok: true,
        error: None,
        cycles: 123_456,
        instructions: 7890,
        digest: 0xcbf2_9ce4_8422_2325,
        output: Some(vec![0, 1, u32::MAX]),
        queue_us: 12,
        exec_us: 3400,
        snap_us: 210,
        slices: 3,
        redelivered: false,
    }));
    roundtrip_response(&Response::Done(JobDone {
        job: 43,
        tenant: "acme".to_owned(),
        label: "job-2".to_owned(),
        ok: false,
        error: Some("watchdog: job exceeded its 1000-cycle budget".to_owned()),
        cycles: 0,
        instructions: 0,
        digest: 0xcbf2_9ce4_8422_2325,
        output: None,
        queue_us: 12,
        exec_us: 50,
        snap_us: 0,
        slices: 1,
        redelivered: true,
    }));
    roundtrip_response(&Response::Pong);
    roundtrip_response(&Response::Stats(StatsReply {
        submitted: 10,
        accepted: 8,
        shed: 2,
        completed: 7,
        failed: 1,
        cancelled: 1,
        queue_depth: 1,
        in_flight: 0,
        connections: 3,
        draining: false,
        tenants: vec![TenantStats {
            tenant: "acme".to_owned(),
            accepted: 8,
            shed: 2,
            completed: 7,
            in_flight: 1,
            latency_us: [150, 900, 2100],
        }],
    }));
    roundtrip_response(&Response::Top(TopReply {
        queue_depth: 2,
        in_flight: 1,
        draining: false,
        tenants: vec![TenantTop {
            tenant: "acme".to_owned(),
            queued: 2,
            in_flight: 1,
            completed: 7,
            shed: 1,
            p50_us: 150,
            p95_us: 900,
            p99_us: 2100,
            shed_ratio: 0.125,
            budget_burn: 1.5,
            instructions: 4096,
            preset: "salu+ivalu+lsu+branch".to_owned(),
        }],
    }));
    roundtrip_response(&Response::Draining { pending: 3 });
    roundtrip_response(&Response::Cancelled {
        job: 42,
        cancelled: true,
    });
    roundtrip_response(&Response::Error {
        message: "malformed request: expected value".to_owned(),
    });
}

#[test]
fn submit_accepts_omitted_optional_fields() {
    // A hand-written client may omit `system` entirely; the vendored
    // serde treats missing fields as null, which `Option` absorbs.
    let kernel = tiny_kernel();
    let kernel_json = format!(
        "{{\"name\":\"proto\",\"words\":\"{}\",\"meta\":{}}}",
        pack_words(kernel.words()),
        serde_json::to_string(kernel.meta()).unwrap()
    );
    let line = format!(
        "{{\"Submit\":{{\"tenant\":\"t\",\"label\":\"l\",\"kernel\":{kernel_json},\
         \"input\":\"\",\"grid\":[1,1,1],\"out_bytes\":4096,\"return_output\":false}}}}"
    );
    let req: Request = serde_json::from_str(&line).expect("omitted system still parses");
    let Request::Submit(s) = req else {
        panic!("expected Submit")
    };
    assert_eq!(s.system, None);
    assert!(s.system_kind().is_ok(), "None defaults to dcdpm");
    assert_eq!(s.exec, None);
    assert!(s.exec_mode().is_ok(), "None defaults to the cycle tier");
}

#[test]
fn unknown_system_preset_is_invalid() {
    let s = SubmitRequest {
        system: Some("warp9".to_owned()),
        ..sample_submit()
    };
    assert!(s.system_kind().is_err());
}

#[test]
fn word_arrays_travel_packed() {
    let line = serde_json::to_string(&Request::Submit(sample_submit())).unwrap();
    assert!(
        line.contains("\"input\":\"AQAAAAIAAAADAAAA776t3g==\""),
        "input is packed little-endian base64: {line}"
    );
    assert!(
        line.contains(&format!(
            "\"words\":\"{}\"",
            pack_words(tiny_kernel().words())
        )),
        "kernel words are packed: {line}"
    );
    assert_eq!(pack_words(&[]), "");
    assert_eq!(pack_words(&[1, 2, 3]), "AQAAAAIAAAADAAAA");
}

#[test]
fn decimal_word_arrays_are_refused() {
    let line = serde_json::to_string(&Request::Submit(sample_submit())).unwrap();
    let decimal = line.replace("\"AQAAAAIAAAADAAAA776t3g==\"", "[1,2,3,3735928559]");
    let err = serde_json::from_str::<Request>(&decimal).expect_err("decimal input refused");
    assert!(
        err.to_string()
            .contains("decimal word arrays are not accepted"),
        "{err}"
    );
}

#[test]
fn packed_decoder_names_each_violation() {
    assert_eq!(
        unpack_words("AQAAAAI"),
        Err(PackedError::Length { chars: 7 })
    );
    assert_eq!(
        unpack_words("AQAA*AIAAAADAAAA"),
        Err(PackedError::Alphabet { at: 4, byte: b'*' })
    );
    assert_eq!(
        unpack_words("AQ=AAAIAAAADAAAA"),
        Err(PackedError::Alphabet { at: 2, byte: b'=' })
    );
    assert_eq!(unpack_words("AQAA===="), Err(PackedError::Padding));
    // Two words' bytes, the last base64 digit carrying a bit the padding
    // drops: not the one encoding of those bytes.
    assert_eq!(unpack_words("AQAAAAIAAAB="), Err(PackedError::Padding));
    assert_eq!(
        unpack_words("AQAAAAI="),
        Err(PackedError::PartialWord { bytes: 5 })
    );
    assert_eq!(unpack_words(""), Ok(Vec::new()));
}

/// Strings built to exercise every escape the writer emits, multi-byte
/// UTF-8 of every width, and raw control characters, long enough that a
/// per-character rescan of the input would take minutes.
#[test]
fn long_strings_with_escapes_round_trip() {
    let unit = "plain \"quoted\" back\\slash\n\r\t\u{1}\u{1f} é ∑ 🦀 /";
    let label: String = unit.repeat(4096);
    assert!(label.len() > 100_000);
    let submit = SubmitRequest {
        label: label.clone(),
        tenant: "t\u{0}nul".to_owned(),
        ..sample_submit()
    };
    let line = serde_json::to_string(&Request::Submit(submit.clone())).unwrap();
    assert!(!line.contains('\n'), "control characters are escaped");
    let back: Request = serde_json::from_str(&line).unwrap();
    assert_eq!(back, Request::Submit(submit));

    let text: String = serde_json::from_str(&serde_json::to_string(&label).unwrap()).unwrap();
    assert_eq!(text, label);
}

#[test]
fn a_one_mebibyte_string_decodes() {
    let text: String = "abcdefgh".repeat(1 << 17);
    assert_eq!(text.len(), 1 << 20);
    let json = format!("\"{text}\"");
    let back: String = serde_json::from_str(&json).unwrap();
    assert_eq!(back, text);

    // The same length as packed words, inside a request.
    let input: Vec<u32> = (0..(3 << 16)).collect();
    let submit = SubmitRequest {
        input,
        ..sample_submit()
    };
    let line = serde_json::to_string(&Request::Submit(submit.clone())).unwrap();
    assert!(line.len() > 1 << 20);
    assert_eq!(
        serde_json::from_str::<Request>(&line).unwrap(),
        Request::Submit(submit)
    );
}

/// One edit of a byte string: overwrite, insert or delete at a position.
#[derive(Debug, Clone)]
enum Edit {
    Set(usize, u8),
    Insert(usize, u8),
    Delete(usize),
}

fn edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (any::<usize>(), any::<u8>()).prop_map(|(at, b)| Edit::Set(at, b)),
        (any::<usize>(), any::<u8>()).prop_map(|(at, b)| Edit::Insert(at, b)),
        any::<usize>().prop_map(Edit::Delete),
    ]
}

fn apply(bytes: &mut Vec<u8>, edits: &[Edit]) {
    for e in edits {
        let len = bytes.len();
        match *e {
            Edit::Set(at, b) if len > 0 => bytes[at % len] = b,
            Edit::Insert(at, b) => bytes.insert(at % (len + 1), b),
            Edit::Delete(at) if len > 0 => {
                bytes.remove(at % len);
            }
            _ => {}
        }
    }
}

/// The base64 alphabet of RFC 4648 §4.
const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

fn sextet(c: u8) -> u8 {
    ALPHABET
        .iter()
        .position(|&a| a == c)
        .expect("a base64 digit") as u8
}

/// Padded RFC 4648 base64 of arbitrary bytes, bit by bit: the reference
/// the packed codec is checked against.
fn base64_reference(bytes: &[u8]) -> String {
    let bits: Vec<u8> = bytes
        .iter()
        .flat_map(|b| (0..8).rev().map(move |i| b >> i & 1))
        .collect();
    let mut out: String = bits
        .chunks(6)
        .map(|six| {
            let v = (0..6).fold(0, |v, i| v << 1 | six.get(i).copied().unwrap_or(0));
            char::from(ALPHABET[usize::from(v)])
        })
        .collect();
    while !out.len().is_multiple_of(4) {
        out.push('=');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any word array survives the codec, the empty one included, and
    /// packs to the reference base64 of its little-endian bytes.
    #[test]
    fn any_words_round_trip(words in prop::collection::vec(any::<u32>(), 0..64)) {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let packed = pack_words(&words);
        prop_assert_eq!(&packed, &base64_reference(&bytes));
        prop_assert_eq!(unpack_words(&packed), Ok(words));
    }

    /// A byte outside the alphabet, anywhere before the padding, is named
    /// by offset and value.
    #[test]
    fn bad_alphabet_is_named(
        words in prop::collection::vec(any::<u32>(), 1..16),
        at in any::<usize>(),
        byte in prop::sample::select(vec![b'*', b'-', b'_', b' ', b'.', b'"', b'\\', 0x7f, 0]),
    ) {
        let mut text = pack_words(&words).into_bytes();
        let body = text.iter().take_while(|&&c| c != b'=').count();
        let at = at % body;
        text[at] = byte;
        let text = String::from_utf8(text).unwrap();
        prop_assert_eq!(unpack_words(&text), Err(PackedError::Alphabet { at, byte }));
    }

    /// Three or more `=` are refused, and so are set bits in the part of
    /// the last digit that padding drops.
    #[test]
    fn bad_padding_is_refused(
        words in prop::collection::vec(any::<u32>(), 1..16),
        pads in 3usize..=4,
        bits in 1u8..16,
    ) {
        let packed = pack_words(&words);
        let over = format!("{}{}", &packed[..packed.len() - pads], "=".repeat(pads));
        prop_assert_eq!(unpack_words(&over), Err(PackedError::Padding));

        let pad = packed.bytes().rev().take_while(|&c| c == b'=').count();
        prop_assume!(pad > 0);
        let dropped = if pad == 1 { 0b11 } else { 0b1111 };
        prop_assume!(bits & dropped != 0);
        let mut text = packed.into_bytes();
        let last = text.len() - pad - 1;
        text[last] = ALPHABET[usize::from(sextet(text[last]) | (bits & dropped))];
        let text = String::from_utf8(text).unwrap();
        prop_assert_eq!(unpack_words(&text), Err(PackedError::Padding));
    }

    /// Bytes that are not a whole number of words, and text that is not a
    /// whole number of groups, are refused.
    #[test]
    fn partial_words_and_ragged_text_are_refused(
        bytes in prop::collection::vec(any::<u8>(), 1..64),
        cut in 1usize..4,
    ) {
        let text = base64_reference(&bytes);
        if bytes.len().is_multiple_of(4) {
            prop_assert!(unpack_words(&text).is_ok());
        } else {
            prop_assert_eq!(
                unpack_words(&text),
                Err(PackedError::PartialWord { bytes: bytes.len() })
            );
        }
        let ragged = &text[..text.len() - cut];
        prop_assert_eq!(unpack_words(ragged), Err(PackedError::Length { chars: ragged.len() }));
    }

    /// Random text gets a typed answer: the words, or a `PackedError`.
    #[test]
    fn random_text_never_panics_the_decoder(bytes in prop::collection::vec(any::<u8>(), 0..48)) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(words) = unpack_words(&text) {
            prop_assert_eq!(pack_words(&words), text.into_owned(), "only canonical text decodes");
        }
    }

    /// Mutated packed strings decode to something else or to a typed
    /// error, and the error names the broken rule.
    #[test]
    fn mutated_packed_strings_fail_typed(
        words in prop::collection::vec(any::<u32>(), 0..16),
        edits in prop::collection::vec(edit(), 1..4),
    ) {
        let mut bytes = pack_words(&words).into_bytes();
        apply(&mut bytes, &edits);
        let text = String::from_utf8_lossy(&bytes).into_owned();
        match unpack_words(&text) {
            Ok(decoded) => prop_assert_eq!(pack_words(&decoded), text),
            Err(PackedError::Length { chars }) => prop_assert!(!chars.is_multiple_of(4)),
            Err(PackedError::Alphabet { at, byte }) => {
                prop_assert_eq!(text.as_bytes()[at], byte);
            }
            Err(PackedError::Padding | PackedError::PartialWord { .. }) => {}
        }
    }

    /// Mutated valid request lines decode or fail with an error; the
    /// decoder never panics.
    #[test]
    fn mutated_request_lines_never_panic(
        input in prop::collection::vec(any::<u32>(), 0..8),
        edits in prop::collection::vec(edit(), 1..6),
    ) {
        let submit = SubmitRequest { input, ..sample_submit() };
        let mut bytes = serde_json::to_string(&Request::Submit(submit)).unwrap().into_bytes();
        apply(&mut bytes, &edits);
        let text = String::from_utf8_lossy(&bytes);
        let _ = serde_json::from_str::<Request>(&text);
    }
}
