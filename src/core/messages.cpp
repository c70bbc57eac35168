#include "core/messages.hpp"

namespace laces::core {

std::vector<std::uint8_t> encode_message(const Message& msg) {
  return codec::encode(msg);
}

Message decode_message(std::span<const std::uint8_t> bytes) {
  return codec::decode<Message>(bytes, "message");
}

}  // namespace laces::core
