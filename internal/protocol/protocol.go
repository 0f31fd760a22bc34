// Package protocol defines FRIEDA's wire messages and their encoding.
//
// The message vocabulary follows Figures 2–4 of the paper: the controller
// starts the master (START_MASTER), configures it (PARTITION_TYPE) and tells
// it how many workers to expect (FORK_REMOTE_WORKERS), workers register with
// the master (REGISTER) and request data (REQUEST_DATA), and the master
// answers with payloads (FILE_DATA), a pre-partitioned share
// (DISTRIBUTE_FILES) and one EXECUTE per task, which the worker answers with
// one TASK_STATUS. Every control message travels in one
// hand-written binary layout, a presence mask and the fields it names; file
// payloads (FILE_DATA) travel as binary frames whose bytes are never
// re-encoded. codec.go has the wire format.
package protocol

import (
	"fmt"

	"frieda/internal/strategy"
)

// Type discriminates messages.
type Type int

// Message types. Names mirror the paper's protocol vocabulary where one
// exists.
const (
	// TInvalid is the zero value; receiving it is always an error.
	TInvalid Type = iota

	// Control plane (controller <-> master, controller <-> worker).

	// TStartMaster initialises the master with the strategy configuration.
	TStartMaster
	// TPartitionType updates the partition strategy at run time over the
	// controller-master channel (no master restart, per Section II-D).
	TPartitionType
	// TForkWorkers tells the master how many workers to expect.
	TForkWorkers
	// TWorkerError reports a worker failure to the controller.
	TWorkerError
	// TRemoveWorker asks the master to drain and drop a worker.
	TRemoveWorker
	// TShutdown asks the receiver to exit cleanly.
	TShutdown
	// TAck acknowledges a control message.
	TAck

	// Execution plane (master <-> worker).

	// TRegister announces a worker to the master (name, cores).
	TRegister
	// TFileData carries one chunk of file payload.
	TFileData
	// TDistribute carries a pre-partition assignment: the list of group
	// indices a worker will own.
	TDistribute
	// TRequestData is a worker's pull for the next group (real-time mode).
	TRequestData
	// TExecute orders execution of a group already resident on the worker.
	TExecute
	// TTaskStatus reports one task's completion or failure.
	TTaskStatus
	// TNoMoreData tells a worker the input set is exhausted.
	TNoMoreData
	// TMasterDone tells the controller all groups completed.
	TMasterDone

	// TExecuteBatch is not a message type: it lies past the last one, so
	// the codec refuses it in both directions (Recv with ErrBadFrame). It
	// remains only because bench/rtwrap.go:226 names it and a change to the
	// runtime may not edit bench/; the benchmark change (ROADMAP item 1)
	// removes that use and this constant. Nothing else may use it.
	TExecuteBatch
)

// typeNames is indexed by Type.
var typeNames = [...]string{
	TInvalid:       "INVALID",
	TStartMaster:   "START_MASTER",
	TPartitionType: "PARTITION_TYPE",
	TForkWorkers:   "FORK_REMOTE_WORKERS",
	TWorkerError:   "WORKER_ERROR",
	TRemoveWorker:  "REMOVE_WORKER",
	TShutdown:      "SHUTDOWN",
	TAck:           "ACK",
	TRegister:      "REGISTER",
	TFileData:      "FILE_DATA",
	TDistribute:    "DISTRIBUTE_FILES",
	TRequestData:   "REQUEST_DATA",
	TExecute:       "EXECUTE",
	TTaskStatus:    "TASK_STATUS",
	TNoMoreData:    "NO_MORE_DATA",
	TMasterDone:    "MASTER_DONE",
}

// valid reports whether t is one of the message types.
func (t Type) valid() bool { return t > TInvalid && int(t) < len(typeNames) }

// String names the type.
func (t Type) String() string {
	if t >= 0 && int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// FileInfo describes one file in a metadata message.
type FileInfo struct {
	Name string
	Size int64
}

// ExecuteSpec is never sent: no message carries one. It remains only because
// bench/rtwrap.go:227 reads it (as Message.Executes); the benchmark change
// (ROADMAP item 1) removes that read and this type.
type ExecuteSpec struct {
	GroupIndex int
	Files      []FileInfo
}

// TaskResult is the payload of TTaskStatus.
type TaskResult struct {
	GroupIndex int
	Worker     string
	OK         bool
	Error      string
	// DurationSec is the execution wall time in seconds.
	DurationSec float64
	// Output is a short result summary (FRIEDA leaves bulk output on the
	// worker; the paper's evaluation uses local output only).
	Output string
}

// Message is the single wire envelope. Only the fields relevant to Type are
// populated; a control frame carries only the non-zero fields, named by its
// presence mask, so an unused field costs nothing on the wire. A TFileData
// message carries only FileName, Worker, Offset, FileSize, Data, Last and
// Seq (the fields of its binary frame), and only a TFileData carries
// FileName, Offset, FileSize, Data or Last: the codec refuses to send them
// in any other type.
type Message struct {
	Type Type

	// Worker identifies the sending or target worker.
	Worker string
	// Cores is the worker's core count (TRegister) or clone count.
	Cores int
	// ReturnOutputs (in a registration TAck) asks the worker to stream
	// registered result files back to the master after each task.
	ReturnOutputs bool
	// ExpectFiles (in a registration TAck) is how many input files the
	// worker can expect to receive, 0 when the master cannot tell: its store
	// may size its index for them once.
	ExpectFiles int

	// Strategy configures the master (TStartMaster, TPartitionType): the
	// strategy.Config itself, no wire copy. The wire carries its enums as
	// integers, so the master validates what arrives.
	Strategy strategy.Config
	// Template is the program execution syntax, e.g.
	// ["app", "arg1", "$inp1", "$inp2"] (TStartMaster, registration TAck).
	Template []string
	// Workers is the expected worker count (TForkWorkers).
	Workers int

	// Files lists file metadata (TExecute, TDistribute).
	Files []FileInfo
	// GroupIndex identifies the task group in play.
	GroupIndex int
	// Groups lists group indices (TDistribute).
	Groups []int

	// FileName, Offset, Data and Last carry one payload chunk (TFileData).
	// Last rides the file's final payload chunk; an empty file is one empty
	// Last chunk.
	FileName string
	Offset   int64
	Data     []byte
	Last     bool
	// FileSize is the total size of the file FileName (TFileData). Senders
	// that know it announce it on every chunk, so the receiver's store can
	// allocate the file once, before its first byte (the chunk at Offset 0);
	// 0 means empty or not announced.
	FileSize int64

	// Result carries task completion (TTaskStatus).
	Result TaskResult
	// Results carries the full outcome list (TMasterDone to a controller
	// that does not run the master; one that does reads the list from the
	// master and is sent none).
	Results []TaskResult
	// Executes is never set, and the codec has no field for it. It remains
	// only because bench/rtwrap.go:227 reads it; the benchmark change
	// (ROADMAP item 1) removes that read and this field.
	Executes []ExecuteSpec
	// BytesMoved, MakespanSec, TransferPhaseSec (the staging phase's wall
	// time) and OutputBytes (the result bytes workers returned) summarise
	// the run (TMasterDone).
	BytesMoved       int64
	MakespanSec      float64
	TransferPhaseSec float64
	OutputBytes      int64

	// Error carries failure detail (TWorkerError, negative TAck).
	Error string
	// Seq correlates acks with requests.
	Seq uint64
}

// WireSize estimates the message's on-the-wire size in bytes; the
// token-bucket throttle in the in-memory transport charges this. Payload
// dominates; headers are charged a flat overhead.
func (m *Message) WireSize() int {
	const overhead = 128
	n := overhead + len(m.Data)
	for _, f := range m.Files {
		n += len(f.Name) + 16
	}
	return n + 16*len(m.Groups)
}
