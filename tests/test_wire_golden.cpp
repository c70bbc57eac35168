// Golden wire bytes: the exact encoding of one sample of every message of
// the control (core::Message), serve (Request/Response) and mesh
// (MeshMessage) planes. Round-trip tests still pass when an encoder and
// its decoder change together; these hex strings do not, so any change to
// what goes on the wire shows up here.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "wire_samples.hpp"

namespace laces::wire_samples {
namespace {

std::string hex(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  char buf[3];
  for (const std::uint8_t b : bytes) {
    std::snprintf(buf, sizeof buf, "%02x", b);
    out += buf;
  }
  return out;
}

template <class V, class Encode>
void expect_golden(Encode encode, const std::vector<std::string>& golden) {
  const auto messages = samples<V>();
  ASSERT_EQ(messages.size(), golden.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(hex(encode(messages[i])), golden[i]) << "alternative " << i;
  }
}

TEST(WireGolden, ControlMessages) {
  const std::vector<std::string> golden = {
      // WorkerHello
      "010000000a616d732d776f726b6572",
      // HelloAck
      "02002a",
      // StartMeasurement
      "03deadbeef020601000000b59b9f780040934a00000000000001000500000014"
      "f46b040000070020060000000000003fff0000000000000001000000003ade68"
      "b10000000000000011",
      // SubmitMeasurement
      "0400000005010400000000b59b9f780040934a00000000000001000500000014"
      "f46b0400",
      // TargetChunk
      "0500000009000000000000020000000002040102030406000000000000000500"
      "0000000000000600000000abcdef01",
      // EndOfTargets
      "060000004d0000000000000029",
      // ResultBatch
      "0700000003000c00000002040908070601000c010003000000000000006f0100"
      "0000000280de800100000006736974652d610600000000000000010000000000"
      "0000020200040000000000000000de0000000000000000100000000012345678"
      "90",
      // WorkerDone
      "08000000080003",
      // MeasurementComplete
      "09000000060020000202",
      // Abort
      "0a00000004",
      // Heartbeat
      "0b000000090015",
      // ChunkAck
      "0c000000070003000000000000feed",
  };
  expect_golden<core::Message>(core::encode_message, golden);
}

TEST(WireGolden, ServeRequests) {
  const std::vector<std::string> golden = {
      // SummaryRequest
      "01",
      // StabilityRequest
      "02",
      // HistoryRequest
      "030620010db800010000000000000000000030",
      // IntermittentRequest
      "04",
      // ExportDayRequest
      "050000002a",
      // StatsRequest
      "06",
      // LatencyRequest
      "07",
      // TraceTailRequest
      "0800000040",
      // FlightRecTailRequest
      "0900000080",
      // MeshStatsRequest
      "0a",
  };
  expect_golden<serve::Request>(serve::encode_request, golden);
}

TEST(WireGolden, ServeResponses) {
  const std::vector<std::string> golden = {
      // ErrorResponse
      "01040000000a71756575652066756c6c00000032",
      // SummaryResponse
      "0203010000000100000003ac02e707a01f3fd000000000000040100000000000"
      "004000000000000000",
      // StabilityResponse
      "03030005044012000000000000030102013ff800000000000001",
      // HistoryResponse
      "04040a00000018030000000106070000000002010000000000030ec80104",
      // IntermittentResponse
      "0502040a000100180620010db80002000000000000000000003001040a000200"
      "18",
      // ExportDayResponse
      "0600000007000000237072656669782c766572646963740a31302e302e302e30"
      "2f32342c616e79636173740a",
      // StatsResponse
      "07650703372c022a060109018080400c00000004000000110000010000000005"
      "01",
      // LatencyResponse
      "08020000000a71756575655f77616974e8073ff8000000000000402280000000"
      "000040440000000000004049c0000000000000000005746f74616ce807400800"
      "000000000040340000000000004056800000000000405e000000000000",
      // TraceTailResponse
      "090107010000000a63656e7375732e6461790000000000000064000000000000"
      "038404",
      // FlightRecTailResponse
      "0a0117979cfe362a000000004e94914f0000000000000000002aa94600000011"
      "00000003000205",
      // MeshStatsResponse
      "0b01020304050607080000000772656c61792d610000000c0000000328a00102"
      "010904050601000000000000004d0000000772656c61792d62020a0b0c0d0105"
      "0000000772656c61792d620602000000010000000b00000003000000011e01",
  };
  expect_golden<serve::Response>(serve::encode_response, golden);
}

TEST(WireGolden, MeshMessages) {
  const std::vector<std::string> golden = {
      // Hello
      "010000000000000007000000066f726967696e010201",
      // Welcome
      "0200000000000000090000000772656c61792d390201",
      // Reject
      "03060000000a6e6f206f7665726c6170",
      // Forward
      "0400070000000000030000000000000007040000000401020304",
      // ForwardReply
      "05000700000000000300000003090807",
      // Subscribe
      "060000000000000005040202040a000000180620010db8000000000000000000"
      "00000030010000000300000001",
      // SubAck
      "070000000000000005010000001d637572736f72207072656461746573207468"
      "652064656c7461206c6f67",
      // DeltaChunk
      "080000000c00000002010100030000000102040a010200180000001731302e31"
      "2e322e302f32342c616e79636173742c2e2e2e0620010db80000000000000000"
      "0000000030000000077636206c696e6501040a09090018",
      // DeltaAck
      "0900000000000000050000000c00000002",
  };
  expect_golden<mesh::MeshMessage>(mesh::encode_mesh, golden);
}

}  // namespace
}  // namespace laces::wire_samples
