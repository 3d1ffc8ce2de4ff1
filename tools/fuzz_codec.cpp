// Wire-codec fuzz harness — one file, two builds:
//
//  * Plain driver (any compiler, built always): writes the seed corpus
//    (one representative encoding per message type, the shared
//    tests/message_corpus.h shapes the codec tests pin) and replays a
//    deterministic bit-flip smoke pass over it. Registered with ctest as
//    fuzz_codec_smoke, so the totality contract — decode_message()
//    returns nullopt on malformed input and never aborts, and every
//    successful decode round-trips byte-stably — is exercised in every
//    build.
//
//  * libFuzzer entry point (clang, -DHCUBE_FUZZERS=ON): the same
//    decode -> re-encode probe under coverage-guided mutation with
//    ASan+UBSan. CI's lint job seeds it from --write-corpus and runs a
//    30-second smoke fuzz (-max_total_time=30).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "ids/node_id.h"
#include "message_corpus.h"
#include "proto/codec.h"
#include "util/check.h"
#include "util/rng.h"

namespace hcube {
namespace {

// Fixed geometry: the fuzzer explores the byte format, not the parameter
// space (the codec validates digits against whatever params it is given).
const IdParams kFuzzParams{16, 8};

// The probe: decode must be total, and a successful decode must yield a
// structurally valid message whose encoding round-trips: the re-encoding
// has the modelled size, decodes again, and re-encodes to the same bytes.
// A field the writer emits but the reader skips (or the reverse) fails
// here.
void one_input(const std::uint8_t* data, std::size_t size) {
  const std::vector<std::uint8_t> bytes(data, data + size);
  const std::optional<Message> decoded = decode_message(bytes, kFuzzParams);
  if (!decoded.has_value()) return;
  const auto encoded = encode_message(*decoded, kFuzzParams);
  HCUBE_CHECK(encoded.size() == wire_size_bytes(*decoded, kFuzzParams));
  const std::optional<Message> again = decode_message(encoded, kFuzzParams);
  HCUBE_CHECK_MSG(again.has_value(), "re-encoding does not decode");
  HCUBE_CHECK_MSG(encode_message(*again, kFuzzParams) == encoded,
                  "decode/encode round trip is not stable");
}

}  // namespace
}  // namespace hcube

#if defined(HCUBE_LIBFUZZER)

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  hcube::one_input(data, size);
  return 0;
}

#else  // plain driver: corpus writer + deterministic smoke replay

namespace hcube {
namespace {

int write_corpus(const std::string& dir) {
  std::filesystem::create_directories(dir);
  int written = 0;
  for (const Message& msg : corpus::one_of_each(kFuzzParams)) {
    const auto bytes = encode_message(msg, kFuzzParams);
    const std::string path =
        dir + "/msg_" + type_name(type_of(msg.body)) + ".bin";
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "fuzz_codec: cannot write %s\n", path.c_str());
      return 1;
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ++written;
  }
  std::printf("fuzz_codec: wrote %d seed inputs to %s\n", written,
              dir.c_str());
  return 0;
}

int smoke(int trials_per_type) {
  // Deterministic: a fixed seed makes the ctest run bit-reproducible.
  Rng rng(20260808);
  std::size_t inputs = 0;
  for (const Message& msg : corpus::one_of_each(kFuzzParams)) {
    const auto bytes = encode_message(msg, kFuzzParams);
    // Every strict prefix must be rejected without aborting.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      one_input(bytes.data(), len);
      ++inputs;
    }
    // Seeded bit flips: decode may succeed or fail, never crash.
    for (int t = 0; t < trials_per_type; ++t) {
      auto corrupt = bytes;
      const int flips = 1 + static_cast<int>(rng.next_below(3));
      for (int f = 0; f < flips; ++f) {
        const std::size_t bit = rng.next_below(corrupt.size() * 8);
        corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      one_input(corrupt.data(), corrupt.size());
      ++inputs;
    }
  }
  std::printf("fuzz_codec: smoke ok, %zu inputs survived\n", inputs);
  return 0;
}

}  // namespace
}  // namespace hcube

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--write-corpus") {
    if (argc < 3) {
      std::fprintf(stderr, "usage: fuzz_codec --write-corpus <dir>\n");
      return 2;
    }
    return hcube::write_corpus(argv[2]);
  }
  int trials = 500;
  if (argc >= 3 && std::string(argv[1]) == "--smoke") trials = std::atoi(argv[2]);
  return hcube::smoke(trials);
}

#endif  // HCUBE_LIBFUZZER
