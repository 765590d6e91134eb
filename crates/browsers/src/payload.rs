//! Rendering native-request catalogues into concrete HTTP requests.
//!
//! This is where the leak patterns the paper documents take wire form:
//! the Base64-encoded full URL (Yandex → `sba.yandex.net`), the hostname
//! plus persistent identifier (Yandex → `api.browser.yandex.ru`), the
//! clear-text full URL (QQ), domain-only reporting (Edge → Bing API,
//! Opera → Sitecheck), the ad-SDK JSON body of Listing 1, and vendor
//! telemetry carrying the Table 2 PII fields.

use bytes::Bytes;

use panoptes_device::{AppDataStore, DeviceProperties};
use panoptes_http::codec::b64_encode_url;
use panoptes_http::headers::vocab;
use panoptes_http::json::{self, Value};
use panoptes_http::method::Method;
use panoptes_http::url::Url;
use panoptes_http::{Atom, Request};
use panoptes_simnet::clock::SimInstant;

use crate::identifiers::persistent_id;
use crate::profile::{BrowserProfile, NativeCall, Payload, PiiField};

/// Everything payload rendering needs to know.
pub struct PayloadCtx<'a> {
    /// Device properties (the PII source).
    pub props: &'a DeviceProperties,
    /// The app's data store (persistent identifiers live here).
    pub data: &'a mut AppDataStore,
    /// The browser being modelled.
    pub profile: &'a BrowserProfile,
    /// Campaign seed (identifier minting).
    pub seed: u64,
    /// Virtual send time (timestamps inside bodies).
    pub now: SimInstant,
    /// The session's user agent, which native requests send too.
    pub user_agent: Atom,
}

/// Renders `call` into a request. `visit` is the page currently being
/// visited, for the per-visit payloads; pass `None` for startup/idle
/// calls. `copy` distinguishes the `count > 1` duplicates.
pub fn build_native_request(
    call: &NativeCall,
    ctx: &mut PayloadCtx<'_>,
    visit: Option<&Url>,
    copy: u32,
) -> Request {
    let mut url = Url::https(&call.host).with_path(&call.path);
    let mut method = call.method;
    let mut body: Option<Bytes> = None;

    match &call.payload {
        Payload::None => {}
        Payload::FullUrlBase64 { param } => {
            let visited = visit.expect("per-visit payload without a visit");
            url = url.with_query_param(param, &b64_encode_url(visited.as_str().as_bytes()));
        }
        Payload::HostnamePlusId { host_param, id_param } => {
            let visited = visit.expect("per-visit payload without a visit");
            let key = ctx.profile.persistent_id_key.as_deref().unwrap_or("install-id");
            let id = persistent_id(ctx.data, key, ctx.seed);
            url = url
                .with_query_param(host_param, visited.host())
                .with_query_param(id_param, &id);
        }
        Payload::FullUrlPlain { param } => {
            let visited = visit.expect("per-visit payload without a visit");
            url = url.with_query_param(param, visited.as_str());
        }
        Payload::DomainOnly { param } => {
            let visited = visit.expect("per-visit payload without a visit");
            url = url.with_query_param(param, &visited.registrable_domain());
        }
        Payload::AdSdkJson => {
            method = Method::Post;
            body = Some(Bytes::from(ad_sdk_body(ctx)));
        }
        Payload::Telemetry => {
            for (key, value) in pii_query_params(&ctx.profile.pii_fields, ctx.props) {
                url = url.with_query_param(key, &value);
            }
            url = url.with_query_param("ts", &ctx.now.0.to_string());
        }
    }
    if copy > 0 {
        url = url.with_query_param("seq", &copy.to_string());
    }

    // Volume padding rides in a POST body.
    if call.body_pad > 0 {
        method = Method::Post;
        let mut padded = body.map(|b| b.to_vec()).unwrap_or_default();
        padded.extend(std::iter::repeat_n(b'x', call.body_pad as usize));
        body = Some(Bytes::from(padded));
    }

    let mut req = match method {
        Method::Post => Request::post(url, body.unwrap_or_default()),
        _ => Request::get(url),
    };
    req.headers.set(vocab().user_agent.clone(), ctx.user_agent.clone());
    req
}

/// Query parameters for the Table 2 PII fields.
pub fn pii_query_params(fields: &[PiiField], props: &DeviceProperties) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    for field in fields {
        match field {
            PiiField::DeviceType => out.push(("deviceType", props.device_type.clone())),
            PiiField::DeviceManufacturer => out.push(("deviceVendor", props.manufacturer.clone())),
            PiiField::Timezone => out.push(("tz", props.timezone.clone())),
            PiiField::Resolution => out.push(("screen", props.resolution_string())),
            PiiField::LocalIp => out.push(("localIp", props.local_ip.to_string())),
            PiiField::Dpi => out.push(("dpi", props.dpi.to_string())),
            PiiField::RootedStatus => out.push(("rooted", props.rooted.to_string())),
            PiiField::Locale => out.push(("locale", props.locale.clone())),
            PiiField::Country => out.push(("countryCode", props.country.clone())),
            PiiField::Location => {
                out.push(("latitude", format!("{:.4}", props.location.0)));
                out.push(("longitude", format!("{:.4}", props.location.1)));
            }
            PiiField::ConnectionType => {
                out.push(("connectionType", props.connection.as_str().to_string()))
            }
            PiiField::NetworkType => out.push(("networkType", props.network.as_str().to_string())),
        }
    }
    out
}

/// The Listing 1 ad-SDK body: always carries the compatibility fields
/// every vendor sends (package, versions, OS, model) plus whatever PII
/// the profile declares.
fn ad_sdk_body(ctx: &mut PayloadCtx<'_>) -> String {
    let props = ctx.props;
    let profile = ctx.profile;
    let mut fields: Vec<(&str, Value)> = vec![
        ("channelId", Value::str(format!("adxsdk_for_{}", profile.name.to_ascii_lowercase()))),
        ("appPackageName", Value::str(&profile.package)),
        ("appVersion", Value::str(&profile.version)),
        ("sdkVersion", Value::str("1.12.2")),
        ("osType", Value::str("ANDROID")),
        ("osVersion", Value::str(&props.android_version)),
        ("deviceModel", Value::str(&props.model)),
        ("timestamp", Value::from(ctx.now.0 / 1_000_000)),
        ("adCount", Value::from(2u32)),
        ("supportedAdTypes", Value::Array(vec![Value::str("SINGLE")])),
        ("userConsent", Value::str("false")),
    ];
    for field in &profile.pii_fields {
        match field {
            PiiField::DeviceType => fields.push(("deviceType", Value::str(&props.device_type))),
            PiiField::DeviceManufacturer => {
                fields.push(("deviceVendor", Value::str(&props.manufacturer)))
            }
            PiiField::Timezone => fields.push(("timezone", Value::str(&props.timezone))),
            PiiField::Resolution => {
                fields.push(("deviceScreenWidth", Value::from(props.resolution.0)));
                fields.push(("deviceScreenHeight", Value::from(props.resolution.1)));
            }
            PiiField::LocalIp => fields.push(("localIp", Value::str(props.local_ip.to_string()))),
            PiiField::Dpi => fields.push(("dpi", Value::from(props.dpi))),
            PiiField::RootedStatus => fields.push(("rooted", Value::Bool(props.rooted))),
            PiiField::Locale => fields.push(("languageCode", Value::str(&props.locale))),
            PiiField::Country => fields.push(("countryCode", Value::str(&props.country))),
            PiiField::Location => {
                fields.push(("latitude", Value::Number(props.location.0)));
                fields.push(("longitude", Value::Number(props.location.1)));
                fields.push(("positionTimestamp", Value::from(ctx.now.0 / 1_000_000)));
            }
            PiiField::ConnectionType => {
                fields.push(("connectionType", Value::str(props.connection.as_str())))
            }
            PiiField::NetworkType => {
                fields.push(("networkType", Value::str(props.network.as_str())))
            }
        }
    }
    if let Some(key) = profile.persistent_id_key.as_deref() {
        let id = persistent_id(ctx.data, key, ctx.seed);
        fields.push((key, Value::str(id)));
    }
    json::to_string(&Value::Object(
        fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BehaviorModel;
    use panoptes_http::useragent::UserAgent;

    fn profile(pii: &[PiiField], id_key: Option<&str>) -> BrowserProfile {
        let mut model = BehaviorModel::new("Opera", "75.1.3978.72329", "com.opera.browser")
            .leaks(pii);
        if let Some(key) = id_key {
            model = model.persistent_id(key);
        }
        model.materialize()
    }

    fn ctx<'a>(
        props: &'a DeviceProperties,
        data: &'a mut AppDataStore,
        profile: &'a BrowserProfile,
    ) -> PayloadCtx<'a> {
        let user_agent = UserAgent::for_browser(&profile.name, &profile.version).render();
        PayloadCtx {
            props,
            data,
            profile,
            seed: 7,
            now: SimInstant(3_000_000),
            user_agent: Atom::from(user_agent),
        }
    }

    #[test]
    fn full_url_base64_roundtrips() {
        let props = DeviceProperties::testbed_tablet();
        let mut data = AppDataStore::new();
        let p = profile(&[], None);
        let call = NativeCall::ping("sba.yandex.net", "/report")
            .carrying(Payload::full_url_base64("url"));
        let visit = Url::parse("https://www.youtube.com/watch?v=abc").unwrap();
        let req = build_native_request(&call, &mut ctx(&props, &mut data, &p), Some(&visit), 0);
        let encoded = req.url.query_param("url").unwrap();
        let decoded = panoptes_http::codec::b64_decode_url(&encoded).unwrap();
        assert_eq!(
            String::from_utf8(decoded).unwrap(),
            "https://www.youtube.com/watch?v=abc"
        );
    }

    #[test]
    fn hostname_plus_persistent_id_is_stable() {
        let props = DeviceProperties::testbed_tablet();
        let mut data = AppDataStore::new();
        let p = profile(&[], Some("yuid"));
        let call = NativeCall::ping("api.browser.yandex.ru", "/check")
            .carrying(Payload::hostname_plus_id("h", "uid"));
        let v1 = Url::parse("https://a.com/x").unwrap();
        let v2 = Url::parse("https://b.com/y").unwrap();
        let r1 = build_native_request(&call, &mut ctx(&props, &mut data, &p), Some(&v1), 0);
        let r2 = build_native_request(&call, &mut ctx(&props, &mut data, &p), Some(&v2), 0);
        assert_eq!(r1.url.query_param("h").as_deref(), Some("a.com"));
        assert_eq!(r2.url.query_param("h").as_deref(), Some("b.com"));
        let id1 = r1.url.query_param("uid").unwrap();
        assert_eq!(id1.len(), 64);
        assert_eq!(id1, r2.url.query_param("uid").unwrap(), "same id across visits");
    }

    #[test]
    fn domain_only_strips_path() {
        let props = DeviceProperties::testbed_tablet();
        let mut data = AppDataStore::new();
        let p = profile(&[], None);
        let call = NativeCall::ping("api.bing.com", "/report")
            .carrying(Payload::domain_only("d"));
        let visit = Url::parse("https://www.health-support001.org/health/depression-support").unwrap();
        let req = build_native_request(&call, &mut ctx(&props, &mut data, &p), Some(&visit), 0);
        assert_eq!(req.url.query_param("d").as_deref(), Some("health-support001.org"));
        assert!(!req.url.as_str().contains("depression"));
    }

    #[test]
    fn ad_sdk_body_matches_listing1_shape() {
        let props = DeviceProperties::testbed_tablet();
        let mut data = AppDataStore::new();
        let p = profile(
            &[
                PiiField::DeviceManufacturer,
                PiiField::Resolution,
                PiiField::Location,
                PiiField::Country,
                PiiField::Locale,
            ],
            Some("operaId"),
        );
        let call = NativeCall::ping("s-odx.oleads.com", "/api/v1/sdk_fetch")
            .via_post()
            .carrying(Payload::AdSdkJson);
        let req = build_native_request(&call, &mut ctx(&props, &mut data, &p), None, 0);
        assert_eq!(req.method, Method::Post);
        let body = json::parse(std::str::from_utf8(&req.body).unwrap()).unwrap();
        assert_eq!(body.get("appPackageName").unwrap().as_str(), Some("com.opera.browser"));
        assert_eq!(body.get("deviceVendor").unwrap().as_str(), Some("Samsung"));
        assert_eq!(body.get("deviceScreenWidth").unwrap().as_i64(), Some(1200));
        assert_eq!(body.get("latitude").unwrap().as_f64(), Some(35.3387));
        assert_eq!(body.get("countryCode").unwrap().as_str(), Some("GR"));
        assert_eq!(body.get("userConsent").unwrap().as_str(), Some("false"));
        assert_eq!(body.get("operaId").unwrap().as_str().unwrap().len(), 64);
    }

    #[test]
    fn telemetry_carries_declared_pii_only() {
        let props = DeviceProperties::testbed_tablet();
        let mut data = AppDataStore::new();
        let p = profile(&[PiiField::Resolution, PiiField::NetworkType], None);
        let call = NativeCall::ping("vortex.data.microsoft.com", "/collect")
            .carrying(Payload::Telemetry);
        let req = build_native_request(&call, &mut ctx(&props, &mut data, &p), None, 0);
        assert_eq!(req.url.query_param("screen").as_deref(), Some("1200x1920"));
        assert_eq!(req.url.query_param("networkType").as_deref(), Some("WIFI"));
        assert_eq!(req.url.query_param("localIp").as_deref(), None);
        assert_eq!(req.url.query_param("latitude").as_deref(), None);
    }

    #[test]
    fn body_pad_inflates_post() {
        let props = DeviceProperties::testbed_tablet();
        let mut data = AppDataStore::new();
        let p = profile(&[], None);
        let call = NativeCall::ping("mtt.browser.qq.com", "/stat").padded(3000);
        let req = build_native_request(&call, &mut ctx(&props, &mut data, &p), None, 0);
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body.len(), 3000);
    }

    #[test]
    fn user_agent_always_present() {
        let props = DeviceProperties::testbed_tablet();
        let mut data = AppDataStore::new();
        let p = profile(&[], None);
        let req = build_native_request(
            &NativeCall::ping("x.com", "/"),
            &mut ctx(&props, &mut data, &p),
            None,
            0,
        );
        let ua = req.headers.get("user-agent").unwrap();
        assert!(ua.contains("Opera/75.1.3978.72329"));
        assert!(ua.contains("SM-T580"));
    }
}
