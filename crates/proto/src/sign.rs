//! SigV4-style request signing — the stateless access-control check.
//!
//! A RESTful service cannot remember that it already authenticated a
//! caller: every request carries a signature over a canonical form of the
//! request, and the service re-derives and re-verifies it each time. The
//! paper (§2.1) identifies this repeated per-request work as a fundamental
//! cost of statelessness; `pcsi-bench` measures [`sign_request`] +
//! [`verify_request`] on the REST path and compares against the PCSI
//! capability model, which checks rights once at bind time.
//!
//! The scheme mirrors AWS Signature Version 4:
//!
//! 1. canonical request = method, target, signed headers, SHA-256(body)
//! 2. string-to-sign   = scope, date, SHA-256(canonical request)
//! 3. signing key      = chained HMACs over date/region/service
//! 4. signature        = HMAC(signing key, string-to-sign)

use crate::hash::{ct_eq, hex, hmac_sha256, Digest, Sha256};
use crate::http::Request;

/// Name of the header carrying the signature.
pub const SIGNATURE_HEADER: &str = "x-pcsi-signature";
/// Name of the header carrying the access key id.
pub const KEY_ID_HEADER: &str = "x-pcsi-key-id";
/// Name of the header carrying the request date (epoch seconds).
pub const DATE_HEADER: &str = "x-pcsi-date";

/// A caller's long-lived secret credential.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Credentials {
    /// Public key identifier sent with each request.
    pub key_id: String,
    /// Secret used to derive signing keys; never sent on the wire.
    pub secret: Vec<u8>,
}

impl Credentials {
    /// Creates credentials.
    pub fn new(key_id: impl Into<String>, secret: impl Into<Vec<u8>>) -> Self {
        Credentials {
            key_id: key_id.into(),
            secret: secret.into(),
        }
    }
}

/// Scope of a signature (region/service pinning, as in SigV4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scope {
    /// Deployment region (e.g. `us-west-2`).
    pub region: String,
    /// Service name (e.g. `kv`, `objects`).
    pub service: String,
}

impl Scope {
    /// Creates a scope.
    pub fn new(region: impl Into<String>, service: impl Into<String>) -> Self {
        Scope {
            region: region.into(),
            service: service.into(),
        }
    }
}

/// Reasons signature verification can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Request lacks one of the authentication headers.
    MissingAuthHeaders,
    /// The key id is unknown to the verifier.
    UnknownKey(String),
    /// The signature did not match.
    SignatureMismatch,
    /// The request date is outside the acceptance window.
    Expired,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::MissingAuthHeaders => f.write_str("missing authentication headers"),
            VerifyError::UnknownKey(k) => write!(f, "unknown access key {k:?}"),
            VerifyError::SignatureMismatch => f.write_str("signature mismatch"),
            VerifyError::Expired => f.write_str("request outside acceptance window"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Builds the canonical request hash (step 1).
fn canonical_request_hash(req: &Request) -> Digest {
    let mut h = Sha256::new();
    h.update(req.method.as_str().as_bytes());
    h.update(b"\n");
    h.update(req.target.as_bytes());
    h.update(b"\n");
    // Headers participate in canonical order (lowercased name, trimmed
    // value), excluding the signature header itself and transport framing
    // headers the HTTP layer may add after signing (`content-length` is
    // implied by the body hash).
    let mut lines: Vec<String> = req
        .headers
        .iter()
        .filter(|(n, _)| {
            !n.eq_ignore_ascii_case(SIGNATURE_HEADER) && !n.eq_ignore_ascii_case("content-length")
        })
        .map(|(n, v)| format!("{}:{}", n.to_ascii_lowercase(), v.trim()))
        .collect();
    lines.sort_unstable();
    for line in &lines {
        h.update(line.as_bytes());
        h.update(b"\n");
    }
    h.update(b"\n");
    h.update(&Sha256::digest(&req.body));
    h.finalize()
}

/// Derives the per-scope signing key (step 3).
fn signing_key(creds: &Credentials, date: &str, scope: &Scope) -> Digest {
    let k_date = hmac_sha256(&creds.secret, date.as_bytes());
    let k_region = hmac_sha256(&k_date, scope.region.as_bytes());
    let k_service = hmac_sha256(&k_region, scope.service.as_bytes());
    hmac_sha256(&k_service, b"pcsi_request")
}

/// Computes the signature for a request whose auth headers are in place.
fn compute_signature(req: &Request, creds: &Credentials, scope: &Scope, date: &str) -> String {
    let mut sts = Sha256::new();
    sts.update(b"PCSI-HMAC-SHA256\n");
    sts.update(date.as_bytes());
    sts.update(b"\n");
    sts.update(scope.region.as_bytes());
    sts.update(b"/");
    sts.update(scope.service.as_bytes());
    sts.update(b"\n");
    sts.update(&canonical_request_hash(req));
    let string_to_sign = sts.finalize();
    hex(&hmac_sha256(
        &signing_key(creds, date, scope),
        &string_to_sign,
    ))
}

/// Signs `req` in place: stamps key-id/date headers and the signature.
///
/// # Examples
///
/// ```
/// use pcsi_proto::http::{Method, Request};
/// use pcsi_proto::sign::{sign_request, verify_request, Credentials, Scope};
///
/// let creds = Credentials::new("AK1", b"top-secret".to_vec());
/// let scope = Scope::new("us-west-2", "kv");
/// let mut req = Request::new(Method::Get, "/tables/t/items/k");
/// sign_request(&mut req, &creds, &scope, 1_700_000_000);
///
/// let lookup = |id: &str| (id == "AK1").then(|| creds.clone());
/// assert!(verify_request(&req, lookup, &scope, 1_700_000_010, 300).is_ok());
/// ```
pub fn sign_request(req: &mut Request, creds: &Credentials, scope: &Scope, now_epoch_s: u64) {
    let date = now_epoch_s.to_string();
    req.headers.insert(KEY_ID_HEADER, creds.key_id.clone());
    req.headers.insert(DATE_HEADER, date.clone());
    let sig = compute_signature(req, creds, scope, &date);
    req.headers.insert(SIGNATURE_HEADER, sig);
}

/// Verifies a signed request.
///
/// `lookup` resolves a key id to credentials (the verifier's key store);
/// `max_skew_s` bounds the request-date acceptance window.
pub fn verify_request(
    req: &Request,
    lookup: impl Fn(&str) -> Option<Credentials>,
    scope: &Scope,
    now_epoch_s: u64,
    max_skew_s: u64,
) -> Result<(), VerifyError> {
    let key_id = req
        .headers
        .get(KEY_ID_HEADER)
        .ok_or(VerifyError::MissingAuthHeaders)?;
    let date = req
        .headers
        .get(DATE_HEADER)
        .ok_or(VerifyError::MissingAuthHeaders)?;
    let presented = req
        .headers
        .get(SIGNATURE_HEADER)
        .ok_or(VerifyError::MissingAuthHeaders)?;

    let req_time: u64 = date.parse().map_err(|_| VerifyError::Expired)?;
    if now_epoch_s.abs_diff(req_time) > max_skew_s {
        return Err(VerifyError::Expired);
    }

    let creds = lookup(key_id).ok_or_else(|| VerifyError::UnknownKey(key_id.to_owned()))?;
    let expected = compute_signature(req, &creds, scope, date);
    if ct_eq(expected.as_bytes(), presented.as_bytes()) {
        Ok(())
    } else {
        Err(VerifyError::SignatureMismatch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Method;

    fn creds() -> Credentials {
        Credentials::new("AKID", b"s3cr3t".to_vec())
    }

    fn scope() -> Scope {
        Scope::new("us-west-2", "kv")
    }

    fn signed_request() -> Request {
        let mut req = Request::new(Method::Put, "/tables/t/items/key1")
            .with_header("host", "kv.pcsi.cloud")
            .with_body(&b"{\"v\":1}"[..]);
        sign_request(&mut req, &creds(), &scope(), 1_000_000);
        req
    }

    fn lookup_ok(id: &str) -> Option<Credentials> {
        (id == "AKID").then(creds)
    }

    /// The signature of `signed_request`, pinned from the portable SHA-256
    /// path. A change to hashing, canonicalisation or header handling
    /// that moves one signed byte fails here, whichever compressor the
    /// host dispatches to.
    #[test]
    fn signature_matches_the_golden_value() {
        assert_eq!(
            signed_request().headers.get(SIGNATURE_HEADER),
            Some("196c110b84b22360f452715d8790882d4ab1f6474ae299593386bb8033f68855")
        );
    }

    #[test]
    fn sign_then_verify_succeeds() {
        let req = signed_request();
        assert_eq!(
            verify_request(&req, lookup_ok, &scope(), 1_000_030, 300),
            Ok(())
        );
    }

    #[test]
    fn tampered_body_rejected() {
        let mut req = signed_request();
        req.body = bytes::Bytes::from_static(b"{\"v\":2}");
        assert_eq!(
            verify_request(&req, lookup_ok, &scope(), 1_000_030, 300),
            Err(VerifyError::SignatureMismatch)
        );
    }

    #[test]
    fn tampered_target_rejected() {
        let mut req = signed_request();
        req.target = "/tables/t/items/key2".into();
        assert_eq!(
            verify_request(&req, lookup_ok, &scope(), 1_000_030, 300),
            Err(VerifyError::SignatureMismatch)
        );
    }

    #[test]
    fn tampered_header_rejected() {
        let mut req = signed_request();
        req.headers.insert("host", "evil.example");
        assert_eq!(
            verify_request(&req, lookup_ok, &scope(), 1_000_030, 300),
            Err(VerifyError::SignatureMismatch)
        );
    }

    #[test]
    fn wrong_scope_rejected() {
        let req = signed_request();
        let other = Scope::new("eu-central-1", "kv");
        assert_eq!(
            verify_request(&req, lookup_ok, &other, 1_000_030, 300),
            Err(VerifyError::SignatureMismatch)
        );
    }

    #[test]
    fn expired_request_rejected() {
        let req = signed_request();
        assert_eq!(
            verify_request(&req, lookup_ok, &scope(), 1_000_000 + 1_000, 300),
            Err(VerifyError::Expired)
        );
    }

    #[test]
    fn unknown_key_rejected() {
        let req = signed_request();
        assert!(matches!(
            verify_request(&req, |_| None, &scope(), 1_000_030, 300),
            Err(VerifyError::UnknownKey(_))
        ));
    }

    #[test]
    fn unsigned_request_rejected() {
        let req = Request::new(Method::Get, "/x");
        assert_eq!(
            verify_request(&req, lookup_ok, &scope(), 1_000_030, 300),
            Err(VerifyError::MissingAuthHeaders)
        );
    }

    #[test]
    fn header_order_does_not_affect_signature() {
        // Sign a request, then present the same headers in different order.
        let req = signed_request();
        let mut reordered =
            Request::new(req.method, req.target.clone()).with_body(req.body.clone());
        let mut entries: Vec<(String, String)> = req
            .headers
            .iter()
            .map(|(n, v)| (n.into(), v.into()))
            .collect();
        entries.reverse();
        for (n, v) in entries {
            reordered.headers.insert(n, v);
        }
        assert_eq!(
            verify_request(&reordered, lookup_ok, &scope(), 1_000_030, 300),
            Ok(())
        );
    }
}
