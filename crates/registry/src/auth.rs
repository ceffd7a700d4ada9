//! Registry authentication providers.
//!
//! Tables 4/5 compare registries by which identity backends they can
//! delegate to (internal DB, LDAP, OIDC, PAM, Kerberos, SAML, ...). What
//! matters for the comparison is which providers a product *accepts*: the
//! product configurations declare it and Table 4 reports it.

use serde::{Deserialize, Serialize};

/// Identity backends seen across Tables 4/5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AuthProvider {
    Internal,
    Ldap,
    Oidc,
    Pam,
    Kerberos,
    Saml,
    Uaa,
    Keystone,
    Google,
    GitHub,
}

/// The authentication service of one registry.
pub struct AuthService {
    enabled: Vec<AuthProvider>,
}

impl AuthService {
    pub fn new(enabled: Vec<AuthProvider>) -> AuthService {
        AuthService { enabled }
    }

    /// Providers this service accepts.
    pub fn providers(&self) -> &[AuthProvider] {
        &self.enabled
    }
}
