// minimpi: a rank-per-thread message-passing layer.
//
// The paper's HPCG and HPGMG case studies run "MPI only".  This layer
// reproduces the MPI structure those solvers need — point-to-point sends
// with tags, barriers, reductions, gathers, broadcasts and Cartesian
// decomposition — with ranks mapped to threads of one process.  The
// programming model is deliberately the same as MPI's so the solver code
// reads like its real counterpart.
#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <vector>

namespace rebench::minimpi {

namespace detail {

struct Message {
  std::vector<std::byte> data;
};

/// Shared state for one communicator's ranks.
class World {
 public:
  explicit World(int size);

  void post(int src, int dst, int tag, std::vector<std::byte> data);
  std::vector<std::byte> await(int src, int dst, int tag);

  void barrier();

  /// All-to-all scratch used by collectives: slot per rank.
  std::vector<double>& scratch() { return scratch_; }

  int size() const { return size_; }

 private:
  int size_;
  std::mutex mutex_;
  std::condition_variable arrived_;
  // Mailboxes keyed by (dst, src, tag); FIFO per key preserves MPI's
  // non-overtaking guarantee.
  std::map<std::tuple<int, int, int>, std::vector<Message>> mailboxes_;

  // Sense-reversing barrier.
  std::mutex barrierMutex_;
  std::condition_variable barrierCv_;
  int barrierCount_ = 0;
  bool barrierSense_ = false;

  std::vector<double> scratch_;
};

}  // namespace detail

enum class Op { kSum, kMin, kMax };

/// Handle a rank uses to communicate; cheap to copy within the rank.
class Comm {
 public:
  Comm(std::shared_ptr<detail::World> world, int rank)
      : world_(std::move(world)), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const { return world_->size(); }

  // ---- point to point (blocking, copying) -------------------------------
  void sendBytes(int dest, int tag, std::span<const std::byte> data);
  std::vector<std::byte> recvBytes(int src, int tag);

  template <typename T>
  void send(int dest, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    sendBytes(dest, tag,
              std::as_bytes(std::span<const T>(data.data(), data.size())));
  }

  template <typename T>
  void recv(int src, int tag, std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::vector<std::byte> bytes = recvBytes(src, tag);
    if (bytes.size() != out.size_bytes()) {
      throw std::runtime_error("minimpi: message size mismatch");
    }
    std::memcpy(out.data(), bytes.data(), bytes.size());
  }

  // ---- nonblocking receives (MPI_Irecv/MPI_Waitall shape) ---------------
  //
  // Sends are already asynchronous (they deposit into the destination
  // mailbox and return), so only the receive side needs request objects.
  // A Request is satisfied by wait(), which blocks until the matching
  // message arrives and copies it into the registered buffer.
  class Request {
   public:
    Request() = default;

    bool valid() const { return comm_ != nullptr; }

   private:
    friend class Comm;
    Request(Comm* comm, int src, int tag, std::byte* data,
            std::size_t bytes)
        : comm_(comm), src_(src), tag_(tag), data_(data), bytes_(bytes) {}

    Comm* comm_ = nullptr;
    int src_ = -1;
    int tag_ = 0;
    std::byte* data_ = nullptr;
    std::size_t bytes_ = 0;
  };

  template <typename T>
  Request irecv(int src, int tag, std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Request(this, src, tag,
                   reinterpret_cast<std::byte*>(out.data()),
                   out.size_bytes());
  }

  /// Completes one request (blocking).  Idempotent requests are not
  /// supported: wait at most once per request.
  void wait(Request& request);

  /// Completes every request; the order of completion is unspecified,
  /// like MPI_Waitall.
  void waitall(std::span<Request> requests);

  // ---- collectives -------------------------------------------------------
  void barrier();
  double allreduce(double value, Op op = Op::kSum);
  std::vector<double> allgather(double value);
  /// In-place broadcast of `data` from `root` to every rank.
  void broadcast(std::span<double> data, int root);
  /// Reduction delivered to `root` only; other ranks get 0.0.
  double reduce(double value, Op op, int root);
  /// Gather of one value per rank; only `root` receives the full vector
  /// (others get an empty vector), mirroring MPI_Gather.
  std::vector<double> gather(double value, int root);
  /// Exclusive prefix sum: rank r receives sum of values of ranks < r
  /// (rank 0 gets 0.0), mirroring MPI_Exscan with MPI_SUM.
  double exscan(double value);

 private:
  std::shared_ptr<detail::World> world_;
  int rank_;
};

/// Spawns `numRanks` threads, each running `body(comm)`.  Rethrows the
/// first rank exception after all ranks have joined.
void run(int numRanks, const std::function<void(Comm&)>& body);

/// MPI_Dims_create-style balanced 3D factorisation of `numRanks`.
std::array<int, 3> dimsCreate3D(int numRanks);

/// 3D Cartesian topology helper (non-periodic).
class Cart3D {
 public:
  Cart3D(Comm& comm, std::array<int, 3> dims);

  std::array<int, 3> coords() const { return coords_; }
  std::array<int, 3> dims() const { return dims_; }
  /// Rank of the neighbour one step along `axis` in `direction` (+1/-1);
  /// -1 when the neighbour would be outside the domain.
  int neighbor(int axis, int direction) const;

  static std::array<int, 3> rankToCoords(int rank,
                                         const std::array<int, 3>& dims);
  static int coordsToRank(const std::array<int, 3>& coords,
                          const std::array<int, 3>& dims);

 private:
  std::array<int, 3> dims_;
  std::array<int, 3> coords_;
};

}  // namespace rebench::minimpi
