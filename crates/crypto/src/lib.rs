//! # hpcc-crypto
//!
//! The cryptographic substrate for the containerization testbed, built from
//! scratch so that the signing / verification / encryption feature rows of
//! the survey's Tables 2 and 5 exercise real code paths:
//!
//! * [`mod@sha256`] — SHA-256 (FIPS 180-4), validated against the standard
//!   `"abc"` / empty-string vectors. Used for layer digests and
//!   content-addressable storage throughout the stack.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104), validated against an RFC 4231 test
//!   vector. Used as the MAC in the encrypt-then-MAC AEAD.
//! * [`chacha20`] — the ChaCha20 stream cipher (RFC 8439 construction).
//!   Used for encrypted containers (the SIF-style encrypted partition).
//! * [`aead`] — encrypt-then-MAC AEAD composed from ChaCha20 + HMAC-SHA256.
//! * [`wots`] — Winternitz one-time signatures plus a Merkle-tree many-time
//!   key ("GPG-like" detached signatures without bignum arithmetic; the
//!   survey's signing comparisons only need sign/verify semantics, key
//!   identity and tamper detection).
//! * [`translog`] — an append-only Merkle transparency log with inclusion
//!   proofs, modelling sigstore/Rekor for the cosign-style rows.
//! * [`hex`] — hexadecimal encoding/decoding for digest display.

pub mod aead;
pub mod chacha20;
pub mod hex;
pub mod hmac;
pub mod sha256;
pub mod translog;
pub mod wots;

pub use aead::{open, seal, AeadError, AeadKey};
pub use sha256::{sha256, Digest};
pub use translog::TransparencyLog;
pub use wots::{Keypair, PublicKey, Signature};
