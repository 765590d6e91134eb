//! Persistent-identifier generation.
//!
//! §3.2: Yandex phones home "together with a persistent identifier so
//! users can be tracked even if they use Tor or a proxy." Vendors mint
//! these IDs once per install; they survive cookie clearing and IP
//! changes, and only an app factory reset destroys them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use panoptes_device::AppDataStore;
use panoptes_http::codec::hex_encode;
use panoptes_http::hash::fnv1a;

/// Mints a 64-hex-char install identifier (the `operaId` shape of
/// Listing 1).
pub fn mint_hex_id(rng: &mut StdRng) -> String {
    let mut bytes = [0u8; 32];
    rng.fill(&mut bytes);
    hex_encode(&bytes)
}

/// Mints a UUIDv4-shaped identifier.
pub fn mint_uuid(rng: &mut StdRng) -> String {
    let mut b = [0u8; 16];
    rng.fill(&mut b);
    b[6] = (b[6] & 0x0f) | 0x40;
    b[8] = (b[8] & 0x3f) | 0x80;
    let h = hex_encode(&b);
    format!("{}-{}-{}-{}-{}", &h[0..8], &h[8..12], &h[12..16], &h[16..20], &h[20..32])
}

/// Returns the app's persistent identifier under `key`, minting it on
/// first use with a generator seeded from `seed` — so a given campaign
/// reproduces identical IDs, while a factory reset yields a fresh one
/// (because the mint count changes the stream position in practice we
/// derive from the key + seed + a per-store nonce).
pub fn persistent_id(data: &mut AppDataStore, key: &str, seed: u64) -> String {
    data.identifier_or_insert(key, || {
        let mut rng = StdRng::seed_from_u64(seed ^ fnv1a(key));
        mint_hex_id(&mut rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_id_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let id = mint_hex_id(&mut rng);
        assert_eq!(id.len(), 64);
        assert!(id.bytes().all(|b| b.is_ascii_hexdigit()));
    }

    #[test]
    fn uuid_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let id = mint_uuid(&mut rng);
        assert_eq!(id.len(), 36);
        assert_eq!(id.as_bytes()[14], b'4'); // version nibble
        let variant = id.as_bytes()[19];
        assert!(matches!(variant, b'8' | b'9' | b'a' | b'b'));
    }

    #[test]
    fn persistent_id_survives_cookie_clear_not_reset() {
        let mut data = AppDataStore::new();
        let first = persistent_id(&mut data, "yandex-uid", 42);
        data.clear_cookies();
        let second = persistent_id(&mut data, "yandex-uid", 42);
        assert_eq!(first, second, "identifier must survive cookie clearing");
        data.factory_reset();
        let third = persistent_id(&mut data, "yandex-uid", 43);
        assert_ne!(first, third, "factory reset + new campaign seed mints a new id");
    }

    #[test]
    fn ids_differ_per_key_and_seed() {
        let mut data = AppDataStore::new();
        let a = persistent_id(&mut data, "a", 1);
        let b = persistent_id(&mut data, "b", 1);
        assert_ne!(a, b);
        let mut data2 = AppDataStore::new();
        let a2 = persistent_id(&mut data2, "a", 2);
        assert_ne!(a, a2);
    }

    #[test]
    fn determinism() {
        let mut d1 = AppDataStore::new();
        let mut d2 = AppDataStore::new();
        assert_eq!(persistent_id(&mut d1, "k", 7), persistent_id(&mut d2, "k", 7));
    }
}
