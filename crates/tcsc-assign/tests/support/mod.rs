//! Helpers shared by the integration suites (`mod support;`).

pub mod oracle;
