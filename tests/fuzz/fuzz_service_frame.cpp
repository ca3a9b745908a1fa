/// \file fuzz_service_frame.cpp
/// Fuzz entry point for the service ingress path: everything the daemon
/// does with client-controlled bytes before any analysis runs. The input
/// is treated as (a) a raw frame — header decode + cap check, (b) a
/// request payload — strict fetch-service-v1 parse, (c) an analysis
/// document — analysis_from_json — and (d) a query reply —
/// parse_query_reply, the client's side of the same bytes. All four must
/// reject garbage via their error-return paths; nothing may throw.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "service/protocol.hpp"
#include "util/framing.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::string error;

  // (a) Frame header: first 4 bytes as a length prefix.
  if (size >= 4) {
    const std::span<const std::uint8_t, 4> header(data, 4);
    (void)fetch::util::decode_frame_header(header, &error);
  }

  // (b) Request payload: the bytes after the header, as the server sees
  // them once read_frame hands the payload to handle_request.
  const std::string payload(
      reinterpret_cast<const char*>(data) + (size >= 4 ? 4 : 0),
      size >= 4 ? size - 4 : size);
  (void)fetch::service::parse_request(payload, &error);

  // (c) An analysis document, as a query reply's "result" carries it.
  const std::string_view whole(reinterpret_cast<const char*>(data), size);
  (void)fetch::service::analysis_from_json(whole, &error);

  // (d) A whole query reply, as ServiceClient::query decodes it.
  (void)fetch::service::parse_query_reply(whole, &error);
  return 0;
}
